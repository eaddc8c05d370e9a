//! A fixed reference computation that tracks how fast this machine runs
//! right now, and the meter that scales measured times by it.
//!
//! On a shared host the same work can take a third longer for seconds
//! or minutes at a time (a busy sibling hyperthread, memory traffic from
//! neighbours), and thread CPU time drifts with wall time, so it does
//! not help. The benchmark times this kernel between units of measured
//! work, at most about half a second apart, and reports times scaled to
//! the kernel's nominal speed. The kernel uses only the standard
//! library, never the repository's crates, so a change to the program
//! cannot move it. It resembles the simulators' inner loops (a
//! binary-heap event queue, scattered reads and writes of a table, float
//! arithmetic), so that the host slows it about as much as it slows
//! them; its table fits in L2 and is allocated below the `mmap`
//! threshold, because page faults would make the kernel noisier than the
//! work it measures.

use crate::trace::Tracer;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// What one kernel call is taken to cost on the nominal machine (s).
/// Scaled times read as if the host ran at that speed throughout; the
/// value fixes the unit only.
pub const NOMINAL_S: f64 = 0.015;
/// A measured stretch of work is closed, and the kernel timed again, at
/// the first checkpoint after it has lasted this long (s). The host's
/// speed moves within seconds, so the kernel must run often.
const SEGMENT_S: f64 = 0.5;
/// Set-ups are timed for this long after each kernel timing (s).
const SETUP_SLICE_S: f64 = 0.02;

/// Events popped per kernel call.
const EVENTS: u32 = 200_000;
/// Pending events in the queue.
const QUEUE: u32 = 4096;
/// Table entries (8 B each): 64 KiB, small enough that the allocation
/// costs no page faults.
const TABLE: usize = 1 << 13;

/// Run the kernel once; returns a checksum so the work cannot be
/// optimized away.
pub fn kernel() -> u64 {
    let mut table = vec![1.0f64; TABLE];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(QUEUE as usize + 1);
    for i in 0..QUEUE {
        heap.push(Reverse((next() >> 40, i)));
    }
    let mut sum = 0.0f64;
    for _ in 0..EVENTS {
        let Some(Reverse((t, id))) = heap.pop() else { break };
        let r = next();
        let slot = (r as usize) & (TABLE - 1);
        let v = table[slot] * 0.999 + f64::from(id) * 1e-6;
        table[slot] = v;
        sum += v;
        heap.push(Reverse((t + (r >> 44) + 1, id)));
    }
    sum.to_bits() ^ heap.len() as u64
}

/// Seconds one kernel call takes now (the fastest of three calls, so a
/// single interruption does not count).
pub fn seconds() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(kernel());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Set-up, timed in short slices right after kernel timings, so that it
/// is sampled all through a run (the host's slow spells come and go
/// within seconds) and scaled like the work.
pub struct SetupSampler {
    /// Runs the workload's set-up once and returns the seconds it took.
    setup: Box<dyn FnMut() -> Result<f64, String>>,
    /// Set-up times as measured (s).
    pub raw_s: Vec<f64>,
    /// The same times scaled to the nominal speed (s).
    pub scaled_s: Vec<f64>,
    /// The first set-up that failed.
    pub error: Option<String>,
}

impl SetupSampler {
    /// A sampler that times `setup`.
    pub fn new(setup: impl FnMut() -> Result<f64, String> + 'static) -> Self {
        SetupSampler {
            setup: Box::new(setup),
            raw_s: Vec::new(),
            scaled_s: Vec::new(),
            error: None,
        }
    }

    /// Time set-ups for `SETUP_SLICE_S` (at least one) and scale them by
    /// `ref_s`, the kernel time measured just before.
    pub fn slice(&mut self, ref_s: f64) {
        let t = Instant::now();
        while self.error.is_none() {
            match (self.setup)() {
                Ok(s) => {
                    self.raw_s.push(s);
                    self.scaled_s.push(scale(s, ref_s, ref_s));
                }
                Err(e) => self.error = Some(e),
            }
            if t.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                break;
            }
        }
    }

    /// Seconds of set-up timed so far.
    pub fn total_s(&self) -> f64 {
        self.raw_s.iter().sum()
    }
}

/// Times work in segments with the kernel timed at each segment
/// boundary, so that each segment's time can be scaled by the host's
/// speed around it. A slice of set-ups follows each kernel timing. The
/// kernel's and the set-ups' time is left out of both totals.
pub struct Meter<'a> {
    start: Instant,
    /// Kernel seconds at the current segment's start.
    ref_s: f64,
    raw_s: f64,
    scaled_s: f64,
    setups: &'a mut SetupSampler,
}

impl<'a> Meter<'a> {
    /// Time the kernel and a slice of set-ups, then start the first
    /// segment.
    pub fn start(tr: &mut Tracer, setups: &'a mut SetupSampler) -> Self {
        let ref_s = tr.span("calib.sample", |_| sample(setups));
        Meter { start: Instant::now(), ref_s, raw_s: 0.0, scaled_s: 0.0, setups }
    }

    /// A point between two units of work where the kernel may run.
    pub fn checkpoint(&mut self, tr: &mut Tracer) {
        if self.start.elapsed().as_secs_f64() >= SEGMENT_S {
            self.close(tr);
        }
    }

    fn close(&mut self, tr: &mut Tracer) {
        let work = self.start.elapsed().as_secs_f64();
        let ref_s = tr.span("calib.sample", |_| sample(self.setups));
        self.raw_s += work;
        self.scaled_s += scale(work, self.ref_s, ref_s);
        self.ref_s = ref_s;
        self.start = Instant::now();
    }

    /// Close the last segment; returns the measured and the scaled
    /// seconds of work.
    pub fn finish(mut self, tr: &mut Tracer) -> (f64, f64) {
        self.close(tr);
        (self.raw_s, self.scaled_s)
    }
}

/// Time the kernel, then a slice of set-ups; returns the kernel time.
pub fn sample(setups: &mut SetupSampler) -> f64 {
    let ref_s = seconds();
    setups.slice(ref_s);
    ref_s
}

/// `work` seconds measured between kernel timings `before` and `after`,
/// scaled to the nominal speed.
pub fn scale(work: f64, before: f64, after: f64) -> f64 {
    work * 2.0 * NOMINAL_S / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_out_the_host_speed() {
        // At nominal speed a time stays; on a host half as fast, work
        // and kernel both take twice as long and the scaled time stays.
        assert_eq!(scale(2.0, NOMINAL_S, NOMINAL_S), 2.0);
        assert!((scale(4.0, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 2.0).abs() < 1e-12);
        // The speed around a segment is the mean of its two ends.
        assert!((scale(3.0, NOMINAL_S, 2.0 * NOMINAL_S) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn meter_leaves_the_kernel_and_set_ups_out() {
        let mut tr = Tracer::new(true, 1);
        let mut setups = SetupSampler::new(|| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok(0.001)
        });
        let m = Meter::start(&mut tr, &mut setups);
        let (raw, scaled) = m.finish(&mut tr);
        // No work between start and finish: the two kernel runs and the
        // set-up slices after them, tens of milliseconds, are not counted.
        assert!(raw < 1e-3, "raw {raw}");
        assert!(scaled < 1e-2, "scaled {scaled}");
        assert_eq!(tr.spans().iter().filter(|s| s.name == "calib.sample").count(), 2);
        // Each slice ran set-ups for about SETUP_SLICE_S.
        let n = setups.raw_s.len();
        assert!(n >= 2 && (n as f64) * 0.001 >= SETUP_SLICE_S, "{n} set-ups");
        assert_eq!(setups.scaled_s.len(), n);
    }

    #[test]
    fn a_failed_set_up_stops_the_slice() {
        let mut setups = SetupSampler::new(|| Err("no inputs".to_string()));
        sample(&mut setups);
        assert_eq!(setups.error.as_deref(), Some("no inputs"));
        assert!(setups.raw_s.is_empty());
    }
}
