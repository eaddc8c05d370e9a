//! The event queue: a total order over simulation events.
//!
//! Ordering contract: events pop in increasing `(time, seq)` order,
//! where `seq` is the insertion sequence number — ties in simulated time
//! resolve in scheduling order, making every run a pure function of the
//! configuration (the smoltcp "no surprises" rule applied to
//! simulation). [`EventQueue::push`] rejects NaN, infinite and negative
//! times; `-0.0` is accepted and queued as `+0.0`, so it ties with other
//! zero times in `seq` order and pops as time `0.0`.
//!
//! Performance: the heap orders packed `u128` keys
//! `(time.to_bits() << 64) | seq` — non-negative finite `f64`s order
//! like their bit patterns, and `seq` is unique, so one integer compare
//! decides `(time, seq)`. Each key travels with a `u32` slot into a slab
//! of [`Ev`] payloads, so a sift step moves 20 bytes and the payload
//! never moves. [`EventQueue::pop`] leaves a hole at the root and the
//! next push fills it with a single sift-down: a handler that schedules
//! its successor right after the pop (the DES "hold" pattern) pays one
//! sift instead of two. Control messages — the one variable-size
//! payload — are parked in a [`MsgSlab`] and referenced by [`MsgId`];
//! both slabs recycle slots through a free list, so steady-state
//! simulation allocates nothing.

use mdr_net::{LinkId, NodeId};
use mdr_proto::LsuMessage;

/// A simulation event. Kept small and `Copy` — every handler pops one
/// out of the queue's slab, so this is the hottest struct in the
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// A source generates the next packet of flow `flow`.
    Generate {
        /// Index into the traffic matrix's flow list.
        flow: usize,
        /// The flow's rate epoch when this arrival was drawn; a rate
        /// change bumps the epoch and starts a new Poisson chain, so an
        /// event of the old chain is stale and dropped.
        epoch: u32,
    },
    /// The head-of-line packet on `link` finishes serialization.
    LinkDeparture {
        /// The transmitting link.
        link: LinkId,
    },
    /// A data packet reaches router `node` (after propagation).
    NodeArrival {
        /// Receiving router.
        node: NodeId,
        /// The packet.
        packet: Packet,
    },
    /// A control (LSU) message reaches router `node` from neighbor
    /// `from`. The message body lives in the simulator's [`MsgSlab`].
    Control {
        /// Receiving router.
        node: NodeId,
        /// Transmitting neighbor.
        from: NodeId,
        /// Slab handle of the message.
        msg: MsgId,
    },
    /// Router `node` closes a `T_s` measurement window: refresh local
    /// link costs and run AH.
    ShortTermTick {
        /// The router.
        node: NodeId,
    },
    /// Router `node` performs a `T_l` long-term routing update.
    LongTermTick {
        /// The router.
        node: NodeId,
    },
    /// A scripted scenario event fires.
    Scenario {
        /// Index into the scenario's event list.
        index: usize,
    },
    /// A scheduled chaos perturbation fires (see [`crate::FaultPlan`]).
    Fault {
        /// Index into the fault plan's pre-generated schedule.
        index: usize,
    },
    /// Statistics sampling tick (time-series buckets).
    Sample,
}

/// A data packet in flight. Plain old data: copied, never cloned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Flow index (for per-flow statistics).
    pub flow: u32,
    /// Final destination router.
    pub dst: NodeId,
    /// Creation time at the source.
    pub created: f64,
    /// Length in bits.
    pub bits: f64,
    /// Remaining hop budget (defensive; MPDA forwarding cannot loop,
    /// and tests assert this never reaches zero).
    pub ttl: u16,
}

/// Handle of a control message parked in a [`MsgSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgId(u32);

/// Side storage for in-flight control messages, so [`Ev`] stays `Copy`.
///
/// Slots freed by [`MsgSlab::take`] are recycled LIFO; the slab grows
/// only when more messages are simultaneously in flight than ever
/// before in the run.
///
/// Each message carries an opaque `u64` tag (0 unless set through
/// [`MsgSlab::insert_tagged`]); the chaos harness stamps sender/receiver
/// incarnation numbers there so a message from a router's previous life
/// is recognizably stale at delivery.
#[derive(Debug, Default)]
pub struct MsgSlab {
    slots: Vec<Option<(LsuMessage, u64)>>,
    free: Vec<u32>,
}

impl MsgSlab {
    /// Empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park `msg` with tag 0, returning its handle.
    pub fn insert(&mut self, msg: LsuMessage) -> MsgId {
        self.insert_tagged(msg, 0)
    }

    /// Park `msg` with an arbitrary tag.
    pub fn insert_tagged(&mut self, msg: LsuMessage, tag: u64) -> MsgId {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some((msg, tag));
                MsgId(i)
            }
            None => {
                self.slots.push(Some((msg, tag)));
                MsgId((self.slots.len() - 1) as u32)
            }
        }
    }

    /// Remove and return the message behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was already taken — handles are single-use.
    pub fn take(&mut self, id: MsgId) -> LsuMessage {
        self.take_tagged(id).0
    }

    /// Remove and return the message behind `id` together with its tag.
    ///
    /// # Panics
    /// Panics if `id` was already taken — handles are single-use.
    pub fn take_tagged(&mut self, id: MsgId) -> (LsuMessage, u64) {
        let entry = self.slots[id.0 as usize].take().expect("MsgId taken twice");
        self.free.push(id.0);
        entry
    }

    /// Messages currently parked.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Deterministic future-event list.
///
/// A binary min-heap over packed `u128` keys with a parallel array of
/// slab slots; the [`Ev`] payloads stay put in a free-list slab. See the
/// module docs for the ordering contract and the deferred pop.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Heap of `(time bits << 64) | seq` keys. While `hole` is set,
    /// `keys[0]` is stale: the queued events are `keys[1..]`, and the
    /// next push or pop refills the root.
    keys: Vec<u128>,
    /// `slots[i]` is the index in `evs` of the event keyed by `keys[i]`.
    slots: Vec<u32>,
    /// Event payloads, indexed by slot.
    evs: Vec<Ev>,
    /// Slots of `evs` whose event has been popped, reused LIFO.
    free: Vec<u32>,
    /// The root was popped and not yet refilled.
    hole: bool,
    seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty queue with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            keys: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            evs: Vec::with_capacity(cap),
            ..Self::default()
        }
    }

    /// Schedule `ev` at absolute time `time`.
    ///
    /// # Panics
    /// Panics when `time` is NaN, infinite, or negative — a non-finite
    /// time would silently corrupt the heap order, so the guard is
    /// unconditional, not debug-only.
    pub fn push(&mut self, time: f64, ev: Ev) {
        assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        // `abs` only changes `-0.0`, which passes the guard but whose
        // sign bit would sort it after every positive time.
        let key = (u128::from(time.abs().to_bits()) << 64) | u128::from(self.seq);
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.evs[slot as usize] = ev;
                slot
            }
            None => {
                let slot = u32::try_from(self.evs.len()).expect("more than u32::MAX queued events");
                self.evs.push(ev);
                slot
            }
        };
        if self.hole {
            self.hole = false;
            self.sift_down(key, slot);
        } else {
            self.keys.push(key);
            self.slots.push(slot);
            self.sift_up(self.keys.len() - 1, key, slot);
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Ev)> {
        if self.hole {
            // Two pops in a row: refill the root with the last entry.
            self.hole = false;
            let key = self.keys.pop().expect("a hole implies a root");
            let slot = self.slots.pop().expect("slots parallel keys");
            if self.keys.is_empty() {
                return None;
            }
            self.sift_down(key, slot);
        }
        let key = *self.keys.first()?;
        let slot = self.slots[0];
        self.hole = true;
        self.free.push(slot);
        Some((f64::from_bits((key >> 64) as u64), self.evs[slot as usize]))
    }

    /// Events still queued.
    pub fn len(&self) -> usize {
        self.keys.len() - usize::from(self.hole)
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Place `(key, slot)` into the vacant root and restore heap order.
    fn sift_down(&mut self, key: u128, slot: u32) {
        let len = self.keys.len();
        let mut pos = 0;
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            if child + 1 < len {
                // Without a branch: which sibling is earlier is a coin
                // flip that the branch predictor cannot learn.
                child += usize::from(self.keys[child + 1] < self.keys[child]);
            }
            if key <= self.keys[child] {
                break;
            }
            self.keys[pos] = self.keys[child];
            self.slots[pos] = self.slots[child];
            pos = child;
        }
        self.keys[pos] = key;
        self.slots[pos] = slot;
    }

    /// Move `(key, slot)`, standing at `pos`, up to its place.
    fn sift_up(&mut self, mut pos: usize, key: u128, slot: u32) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[pos] = self.keys[parent];
            self.slots[pos] = self.slots[parent];
            pos = parent;
        }
        self.keys[pos] = key;
        self.slots[pos] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Reference model: a `BinaryHeap` of whole entries ordered by
    /// `total_cmp` on time, then `seq`.
    #[derive(Debug, Clone, Copy)]
    struct Entry {
        time: f64,
        seq: u64,
        ev: Ev,
    }

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want earliest first.
            other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    #[derive(Default)]
    struct ReferenceQueue {
        heap: BinaryHeap<Entry>,
        seq: u64,
    }

    impl ReferenceQueue {
        fn push(&mut self, time: f64, ev: Ev) {
            self.heap.push(Entry { time, seq: self.seq, ev });
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(f64, Ev)> {
            self.heap.pop().map(|e| (e.time, e.ev))
        }
    }

    /// Few distinct times, so most pushes tie with a queued event.
    const TIMES: [f64; 5] = [0.0, 0.5, 1.0, 1.5, 1e9];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// Any interleaving of pushes and pops — pops on an empty queue,
        /// pushes straight into the hole a pop left, runs of pops —
        /// yields the reference heap's pop sequence, with `len` and
        /// `is_empty` agreeing after every step.
        #[test]
        fn matches_reference_heap(
            ops in prop::collection::vec((0u8..3, 0usize..TIMES.len()), 0..200),
        ) {
            let mut q = EventQueue::new();
            let mut reference = ReferenceQueue::default();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (i, &(op, t)) in ops.iter().enumerate() {
                // Two in three ops push; the drain below pops the rest.
                if op == 0 {
                    got.push(q.pop());
                    want.push(reference.pop());
                } else {
                    let ev = Ev::Generate { flow: i, epoch: 0 };
                    q.push(TIMES[t], ev);
                    reference.push(TIMES[t], ev);
                }
                prop_assert_eq!(q.len(), reference.heap.len());
                prop_assert_eq!(q.is_empty(), reference.heap.is_empty());
            }
            while let Some(e) = reference.pop() {
                want.push(Some(e));
                got.push(q.pop());
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert!(q.is_empty());
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn negative_zero_pops_as_zero_before_positive_times() {
        let mut q = EventQueue::new();
        q.push(f64::MIN_POSITIVE, Ev::Sample);
        q.push(1.0, Ev::Sample);
        q.push(-0.0, Ev::Generate { flow: 7, epoch: 0 });
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t.to_bits(), 0.0f64.to_bits());
        assert_eq!(ev, Ev::Generate { flow: 7, epoch: 0 });
        assert_eq!(q.pop().unwrap().0, f64::MIN_POSITIVE);
        assert_eq!(q.pop().unwrap().0, 1.0);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, Ev::Sample);
        q.push(1.0, Ev::Generate { flow: 0, epoch: 0 });
        q.push(3.0, Ev::Generate { flow: 1, epoch: 0 });
        assert_eq!(q.pop().unwrap().0, 1.0);
        assert_eq!(q.pop().unwrap().0, 2.0);
        assert_eq!(q.pop().unwrap().0, 3.0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_resolve_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, Ev::Generate { flow: 0, epoch: 0 });
        q.push(1.0, Ev::Generate { flow: 1, epoch: 0 });
        q.push(1.0, Ev::Generate { flow: 2, epoch: 0 });
        for expect in 0..3 {
            match q.pop().unwrap().1 {
                Ev::Generate { flow, .. } => assert_eq!(flow, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, Ev::Sample);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(128);
        q.push(1.0, Ev::Sample);
        q.push(0.5, Ev::Sample);
        assert_eq!(q.pop().unwrap().0, 0.5);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_time() {
        EventQueue::new().push(f64::NAN, Ev::Sample);
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_infinite_time() {
        EventQueue::new().push(f64::INFINITY, Ev::Sample);
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_negative_time() {
        EventQueue::new().push(-1.0, Ev::Sample);
    }

    #[test]
    fn msg_slab_recycles_slots() {
        let mut slab = MsgSlab::new();
        let m = LsuMessage::ack_only(NodeId(1));
        let a = slab.insert(m.clone());
        let b = slab.insert(m.clone());
        assert_eq!(slab.len(), 2);
        let got = slab.take(a);
        assert_eq!(got, m);
        assert_eq!(slab.len(), 1);
        // The freed slot is reused: no growth.
        let c = slab.insert(m);
        assert_eq!(slab.len(), 2);
        assert_eq!(c, a);
        let _ = slab.take(b);
        let _ = slab.take(c);
        assert!(slab.is_empty());
    }
}
