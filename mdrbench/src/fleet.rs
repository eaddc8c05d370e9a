//! `fleet_churn`: an in-process fleet of [`NodeCore`]s — the live
//! control plane without sockets — on a seeded Barabási–Albert graph.
//!
//! The benchmark's own loop carries datagrams over an in-memory wire
//! under a virtual clock: fixed one-way latency and seeded light loss.
//! The fleet boots cold, then runs seeded episodes, each either a kill
//! and restart (the node returns at incarnation + 1 and is quarantined)
//! or a partition and heal. Reconvergence is the virtual time from the
//! restart or heal instant until every node reports converged and every
//! node has a route to every other.

use crate::calib::Meter;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::workload::{stream, thread_cpu_ns, Digest, Outcome};
use mdr_net::{gen, NodeId, INFINITE_COST};
use mdr_node::{NodeConfig, NodeCore, NodeOutput, RecordBody};
use mdr_proto::{unframe_node, NodeBody};
use mdr_routing::lfi;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// Routers in the fleet.
const N: usize = 50;
/// Seed of the fleet's BA topology. The topology is the same for every
/// run: across seeded topologies the datagrams a run carries, and its
/// time with them, spread by about 8 % (interquartile range over the
/// median), against 2 % across seeded fault schedules on one topology.
/// The run's seed drives the fault schedule and the wire's losses.
const TOPOLOGY_SEED: u64 = 1;
/// Fault episodes after the cold boot.
const EPISODES: usize = 100;
/// One-way wire latency (s).
const LATENCY: f64 = 0.001;
/// Share of datagrams the wire loses.
const LOSS: f64 = 0.01;
/// Virtual time allowed for the cold boot and for each reconvergence (s).
const DEADLINE: f64 = 10.0;
/// Quiet virtual time between a reconvergence and the next fault (s).
const GAP: f64 = 0.05;
/// Steps between loop-freedom audits while the fleet is running.
const AUDIT_EVERY: u64 = 512;

/// One seeded fault.
#[derive(Debug, Clone)]
enum Fault {
    /// Stop `node` for `down` seconds, then restart it one incarnation up.
    Kill { node: usize, down: f64 },
    /// Cut every link between `side` and the rest for `dur` seconds.
    Partition { side: Vec<bool>, dur: f64 },
}

/// Generated topology and fault schedule.
#[derive(Debug, Clone)]
struct Inputs {
    neighbors: Vec<Vec<(NodeId, f64)>>,
    faults: Vec<Fault>,
    loss_seed: u64,
}

fn generate(seed: u64) -> Inputs {
    let topo = gen::barabasi_albert(N, 2, TOPOLOGY_SEED);
    let neighbors: Vec<Vec<(NodeId, f64)>> = topo
        .nodes()
        .map(|i| topo.out_links(i).map(|(_, l)| (l.to, l.prop_delay)).collect())
        .collect();
    // Exactly half kills, half partitions, in seeded order: the two
    // kinds reconverge on different time scales, so a seed-dependent
    // mix would move the median with the draw. For the same reason the
    // draws are stratified: every router is killed once, and down
    // times, partition sizes and partition lengths each cover their
    // range evenly, so the seed changes which episode gets which and
    // the topology, but hardly the amount of work.
    let mut rng = stream(seed, 2);
    let half = EPISODES / 2;
    let mut kills: Vec<bool> = (0..EPISODES).map(|e| e < half).collect();
    shuffle(&mut kills, &mut rng);
    let mut victims: Vec<usize> = (0..half).map(|k| k % N).collect();
    shuffle(&mut victims, &mut rng);
    let mut downs = stratified(half, 0.2, 1.6, &mut rng);
    let mut sizes: Vec<usize> = (0..half).map(|k| N / 5 + k * (N / 5) / half).collect();
    shuffle(&mut sizes, &mut rng);
    let mut durs = stratified(half, 1.2, 2.0, &mut rng);
    let faults = kills
        .into_iter()
        .map(|kill| {
            if kill {
                let (node, down) = (victims.pop(), downs.pop());
                Fault::Kill { node: node.unwrap_or(0), down: down.unwrap_or(0.2) }
            } else {
                // A connected side: breadth-first ball around a root.
                let want = sizes.pop().unwrap_or(N / 5);
                let mut side = vec![false; N];
                let mut queue = VecDeque::from([rng.gen_range(0..N)]);
                let mut taken = 0;
                while let Some(i) = queue.pop_front() {
                    if side[i] || taken == want {
                        continue;
                    }
                    side[i] = true;
                    taken += 1;
                    queue.extend(neighbors[i].iter().map(|(k, _)| k.index()));
                }
                Fault::Partition { side, dur: durs.pop().unwrap_or(1.2) }
            }
        })
        .collect();
    Inputs { neighbors, faults, loss_seed: stream(seed, 3).gen() }
}

/// Fisher–Yates shuffle.
fn shuffle<T>(xs: &mut [T], rng: &mut SmallRng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.gen_range(0..i + 1));
    }
}

/// `n` draws from `lo..hi`, one from each of `n` equal strata, in
/// seeded order.
fn stratified(n: usize, lo: f64, hi: f64, rng: &mut SmallRng) -> Vec<f64> {
    let mut xs: Vec<f64> =
        (0..n).map(|k| lo + (hi - lo) * (k as f64 + rng.gen::<f64>()) / n as f64).collect();
    shuffle(&mut xs, rng);
    xs
}

/// Digest of the generated inputs for `seed`.
pub fn input_digest(seed: u64) -> u64 {
    let inp = generate(seed);
    let mut d = Digest::default();
    for (i, nbrs) in inp.neighbors.iter().enumerate() {
        for (k, c) in nbrs {
            d.u64(i as u64);
            d.u64(k.0 as u64);
            d.f64(*c);
        }
    }
    for f in &inp.faults {
        match f {
            Fault::Kill { node, down } => {
                d.u64(*node as u64);
                d.f64(*down);
            }
            Fault::Partition { side, dur } => {
                d.u64(side.iter().filter(|s| **s).count() as u64);
                d.f64(*dur);
            }
        }
    }
    d.u64(inp.loss_seed);
    d.finish()
}

/// The generated inputs with every node constructed at time 0.
pub struct Fleet {
    inputs: Inputs,
    nodes: Vec<Option<NodeCore>>,
    boot: Vec<NodeOutput>,
}

impl Fleet {
    /// Generate the inputs for `seed` and boot every node at time 0.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let inputs = tr.span("gen.topology", |_| generate(seed));
        let mut nodes = Vec::with_capacity(N);
        let mut boot = Vec::with_capacity(N);
        for i in 0..N {
            let cfg = NodeConfig::new(NodeId(i as u32), N, 1, inputs.neighbors[i].clone());
            let (core, out) = tr.span("node.new", |_| NodeCore::new(cfg, 0.0));
            nodes.push(Some(core));
            boot.push(out);
        }
        Fleet { inputs, nodes, boot }
    }

    /// Boot to convergence, run every episode, and check each; the
    /// meter may time its reference kernel between episodes.
    pub fn run(self, tr: &mut Tracer, meter: &mut Meter<'_>) -> Outcome {
        let Fleet { inputs, nodes, boot } = self;
        let mut w = World::new(&inputs, nodes, tr.enabled());
        let mut out = Outcome::default();
        for (i, o) in boot.into_iter().enumerate() {
            w.absorb(i, o);
        }
        for i in 0..N {
            w.refresh(i, tr);
        }
        out.attempted += 1;
        match w.run_until_converged(DEADLINE, tr) {
            Some(t) => {
                out.detail.insert("boot_ms".into(), t * 1000.0);
            }
            None => out.fail("boot", format!("did not converge within {DEADLINE} s")),
        }
        if let Some(v) = w.loop_found.take() {
            out.fail("boot", v);
        }
        let (mut reconverge_ms, mut cpu_ms) = (Vec::new(), Vec::new());
        for (ep, fault) in inputs.faults.iter().enumerate() {
            out.attempted += 1;
            let cpu0 = thread_cpu_ns();
            let wall0 = Instant::now();
            let t_ref = match fault {
                Fault::Kill { node, down } => {
                    w.kill(*node, tr);
                    w.run_until(w.now + down, tr);
                    w.audit(tr);
                    w.restart(*node, tr);
                    w.now
                }
                Fault::Partition { side, dur } => {
                    w.side = Some(side.clone());
                    w.reach_dirty = true;
                    w.audit(tr);
                    w.run_until(w.now + dur, tr);
                    w.audit(tr);
                    w.side = None;
                    w.reach_dirty = true;
                    w.now
                }
            };
            match w.run_until_converged(t_ref + DEADLINE, tr) {
                Some(t) => reconverge_ms.push((t - t_ref) * 1000.0),
                None => out.fail(&format!("episode {ep}"), "did not reconverge in time".into()),
            }
            w.audit(tr);
            if let Some(v) = w.loop_found.take() {
                out.fail(&format!("episode {ep}"), v);
            }
            let cpu = match (cpu0, thread_cpu_ns()) {
                (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e6,
                _ => wall0.elapsed().as_secs_f64() * 1000.0,
            };
            cpu_ms.push(cpu);
            meter.checkpoint(tr);
            w.run_until(w.now + GAP, tr);
        }

        tr.span("routing.stats", |_| {
            let live = w.nodes.iter().flatten().map(|c| c.driver().router().stats());
            for s in live.chain(w.retired.iter().copied()) {
                out.router_stats(s);
            }
        });
        out.count("routing.route_changes", w.route_changes as f64);
        out.count("flow.ih_runs", w.allocs as f64);
        out.count("proto.control_bytes", w.bytes as f64);
        out.count("node.records", w.records as f64);
        if tr.enabled() {
            let [hello, data, ack] = w.kinds;
            out.count("proto.datagrams.hello", hello as f64);
            out.count("proto.datagrams.data", data as f64);
            out.count("proto.datagrams.ack", ack as f64);
        }
        out.events = w.datagrams;
        // The mean, not the median: reconvergence times cluster on the
        // transport's timer steps, so the median jumps a whole step
        // between seeds while the mean moves smoothly.
        out.result_ms = reconverge_ms.iter().sum::<f64>() / reconverge_ms.len().max(1) as f64;
        let mut detail = vec![
            ("datagrams", w.datagrams as f64),
            ("ticks", w.ticks as f64),
            ("lost", w.lost as f64),
            ("virtual_s", w.now),
        ];
        for (name, xs, p) in [
            ("reconverge_ms_p50", &reconverge_ms, 50.0),
            ("reconverge_ms_p90", &reconverge_ms, 90.0),
            ("episode_cpu_ms_p50", &cpu_ms, 50.0),
            ("episode_cpu_ms_p90", &cpu_ms, 90.0),
            ("quarantine_ms_p50", &w.quarantine_ms, 50.0),
        ] {
            if let Some(v) = percentile(xs, p) {
                detail.push((name, v));
            }
        }
        for (k, v) in detail {
            out.detail.insert(k.into(), v);
        }

        let mut d = Digest::default();
        for &x in &reconverge_ms {
            d.f64(x);
        }
        d.u64(w.datagrams);
        d.u64(w.ticks);
        d.u64(w.records);
        for c in w.nodes.iter().flatten() {
            for j in 0..N as u32 {
                d.f64(c.driver().router().distance(NodeId(j)));
            }
        }
        for (k, v) in &out.counts {
            if !k.starts_with("proto.datagrams") {
                d.f64(*v);
            }
        }
        out.digest = d.finish();
        out
    }
}

/// A datagram on the wire.
struct Datagram {
    at: f64,
    from: usize,
    to: usize,
    bytes: Vec<u8>,
}

/// Tick deadline in the timer heap (ordered by time, then node).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Due(f64, usize, u64);

impl Eq for Due {}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1)).then(self.2.cmp(&other.2))
    }
}

/// The running fleet, its wire and its clock.
struct World {
    neighbors: Vec<Vec<(NodeId, f64)>>,
    nodes: Vec<Option<NodeCore>>,
    incarnation: Vec<u32>,
    /// Partition in force: which side each node is on.
    side: Option<Vec<bool>>,
    wire: VecDeque<Datagram>,
    timers: BinaryHeap<Reverse<Due>>,
    timer_gen: Vec<u64>,
    converged: Vec<bool>,
    n_converged: usize,
    reach_dirty: bool,
    reach_ok: bool,
    now: f64,
    loss: SmallRng,
    traced: bool,
    steps: u64,
    // Work counts.
    datagrams: u64,
    ticks: u64,
    lost: u64,
    bytes: u64,
    records: u64,
    route_changes: u64,
    allocs: u64,
    kinds: [u64; 3],
    quarantine_ms: Vec<f64>,
    retired: Vec<mdr_routing::mpda::RouterStats>,
    /// The latest loop the audit found, until the episode reports it.
    loop_found: Option<String>,
}

impl World {
    fn new(inputs: &Inputs, nodes: Vec<Option<NodeCore>>, traced: bool) -> Self {
        World {
            neighbors: inputs.neighbors.clone(),
            nodes,
            incarnation: vec![1; N],
            side: None,
            wire: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_gen: vec![0; N],
            converged: vec![false; N],
            n_converged: 0,
            reach_dirty: true,
            reach_ok: false,
            now: 0.0,
            loss: SmallRng::seed_from_u64(inputs.loss_seed),
            traced,
            steps: 0,
            datagrams: 0,
            ticks: 0,
            lost: 0,
            bytes: 0,
            records: 0,
            route_changes: 0,
            allocs: 0,
            kinds: [0; 3],
            quarantine_ms: Vec::new(),
            retired: Vec::new(),
            loop_found: None,
        }
    }

    fn alive(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Put node `i`'s datagrams on the wire and tally its records.
    fn absorb(&mut self, i: usize, out: NodeOutput) {
        for (to, bytes) in out.datagrams {
            self.bytes += bytes.len() as u64;
            if self.loss.gen_bool(LOSS) {
                self.lost += 1;
                continue;
            }
            self.wire.push_back(Datagram {
                at: self.now + LATENCY,
                from: i,
                to: to.index(),
                bytes,
            });
        }
        for r in &out.records {
            self.records += 1;
            match &r.body {
                RecordBody::RouteChange { .. } => {
                    self.route_changes += 1;
                    self.reach_dirty = true;
                }
                RecordBody::Alloc { .. } => self.allocs += 1,
                RecordBody::Resynced { waited } => self.quarantine_ms.push(waited * 1000.0),
                _ => {}
            }
        }
    }

    /// Re-arm node `i`'s timer and refresh its convergence flag.
    fn refresh(&mut self, i: usize, tr: &mut Tracer) {
        self.timer_gen[i] += 1;
        let Some(core) = self.nodes[i].as_ref() else {
            self.set_converged(i, false);
            return;
        };
        // One span for both accessors: each costs a fraction of a
        // microsecond, and they run after every call into a node.
        let (due, conv) = tr.span("node.poll", |_| (core.next_deadline(), core.is_converged()));
        if due.is_finite() {
            self.timers.push(Reverse(Due(due.max(self.now), i, self.timer_gen[i])));
        }
        self.set_converged(i, conv);
    }

    fn set_converged(&mut self, i: usize, c: bool) {
        if self.converged[i] != c {
            self.converged[i] = c;
            if c {
                self.n_converged += 1;
            } else {
                self.n_converged -= 1;
            }
        }
    }

    /// Time of the next wire delivery or timer, dropping stale timers.
    fn next_time(&mut self) -> f64 {
        while let Some(Reverse(Due(_, i, g))) = self.timers.peek() {
            if *g == self.timer_gen[*i] && self.nodes[*i].is_some() {
                break;
            }
            self.timers.pop();
        }
        let wire = self.wire.front().map_or(f64::INFINITY, |d| d.at);
        let timer = self.timers.peek().map_or(f64::INFINITY, |Reverse(d)| d.0);
        wire.min(timer)
    }

    /// Process the next event (a delivery, else a timer).
    fn step(&mut self, tr: &mut Tracer) {
        let wire = self.wire.front().map_or(f64::INFINITY, |d| d.at);
        let timer = self.timers.peek().map_or(f64::INFINITY, |Reverse(d)| d.0);
        self.steps += 1;
        if wire <= timer {
            let Some(d) = self.wire.pop_front() else { return };
            self.now = self.now.max(d.at);
            let severed = self.side.as_ref().is_some_and(|s| s[d.from] != s[d.to]);
            if severed || self.nodes[d.to].is_none() {
                return;
            }
            if self.traced {
                let kind = tr.span("proto.unframe", |_| unframe_node(&d.bytes).map(|m| m.body));
                match kind {
                    Ok(NodeBody::Hello { .. }) => self.kinds[0] += 1,
                    Ok(NodeBody::Data { .. }) => self.kinds[1] += 1,
                    Ok(NodeBody::Ack { .. }) => self.kinds[2] += 1,
                    Err(_) => {}
                }
            }
            let now = self.now;
            let Some(core) = self.nodes[d.to].as_mut() else { return };
            let out = tr.span("node.on_datagram", |_| core.on_datagram(&d.bytes, now));
            self.datagrams += 1;
            self.absorb(d.to, out);
            self.refresh(d.to, tr);
        } else {
            let Some(Reverse(Due(t, i, _))) = self.timers.pop() else { return };
            self.now = self.now.max(t);
            let now = self.now;
            let Some(core) = self.nodes[i].as_mut() else { return };
            let out = tr.span("node.on_tick", |_| core.on_tick(now));
            self.ticks += 1;
            self.absorb(i, out);
            self.refresh(i, tr);
        }
        if self.steps.is_multiple_of(AUDIT_EVERY) {
            self.audit(tr);
        }
    }

    /// Run every event up to and including `t`, then stand at `t`.
    fn run_until(&mut self, t: f64, tr: &mut Tracer) {
        while self.next_time() <= t {
            self.step(tr);
        }
        self.now = self.now.max(t);
    }

    /// Run until the fleet has converged (returning that instant) or
    /// the next event lies past `deadline`.
    fn run_until_converged(&mut self, deadline: f64, tr: &mut Tracer) -> Option<f64> {
        loop {
            if self.n_converged == self.alive() && self.reachable(tr) {
                return Some(self.now);
            }
            if self.next_time() > deadline {
                return None;
            }
            self.step(tr);
        }
    }

    /// Does every live node have a route to every live node it is
    /// connected to? Recomputed only after routes or links changed.
    fn reachable(&mut self, tr: &mut Tracer) -> bool {
        if !self.reach_dirty {
            return self.reach_ok;
        }
        self.reach_dirty = false;
        let comp = self.components();
        let nodes = &self.nodes;
        self.reach_ok = tr.span("check.reach", |_| {
            nodes.iter().enumerate().all(|(i, c)| {
                let Some(c) = c else { return true };
                let r = c.driver().router();
                (0..N).all(|j| {
                    j == i || comp[j] != comp[i] || r.distance(NodeId(j as u32)) < INFINITE_COST
                })
            })
        });
        self.reach_ok
    }

    /// Connected-component label of every node under the current
    /// partition (dead nodes get their own label).
    fn components(&self) -> Vec<usize> {
        let mut comp = vec![usize::MAX; N];
        for root in 0..N {
            if comp[root] != usize::MAX {
                continue;
            }
            comp[root] = root;
            if self.nodes[root].is_none() {
                continue;
            }
            let mut stack = vec![root];
            while let Some(i) = stack.pop() {
                for (k, _) in &self.neighbors[i] {
                    let k = k.index();
                    let severed = self.side.as_ref().is_some_and(|s| s[i] != s[k]);
                    if comp[k] == usize::MAX && self.nodes[k].is_some() && !severed {
                        comp[k] = root;
                        stack.push(k);
                    }
                }
            }
        }
        comp
    }

    /// Audit loop freedom over a snapshot of every live node's
    /// successor sets. Dead nodes have none, and an edge over a severed
    /// link is left out: a node that has not yet noticed the cut still
    /// lists the far side, but nothing it forwards there arrives, so no
    /// packet can follow that edge round a cycle.
    fn audit(&mut self, tr: &mut Tracer) {
        let mut succ: Vec<Vec<Vec<NodeId>>> = vec![vec![Vec::new(); N]; N];
        for (i, c) in self.nodes.iter().enumerate() {
            let Some(c) = c else { continue };
            let snap = tr.span("node.snapshot", |_| c.snapshot());
            for mut d in snap.dests {
                if let Some(side) = &self.side {
                    d.successors.retain(|k| side[k.index()] == side[i]);
                }
                succ[i][d.dest.index()] = d.successors;
            }
        }
        let verdict = tr.span("check.lfi", |_| {
            lfi::check_loop_freedom_view(N, |i, j| succ[i.index()][j.index()].as_slice())
        });
        if let Err((dest, cycle)) = verdict {
            self.loop_found =
                Some(format!("loop toward {dest:?} at t = {} s: {cycle:?}", self.now));
        }
    }

    fn kill(&mut self, i: usize, tr: &mut Tracer) {
        if let Some(c) = self.nodes[i].take() {
            self.retired.push(c.driver().router().stats());
        }
        self.reach_dirty = true;
        self.refresh(i, tr);
        self.audit(tr);
    }

    fn restart(&mut self, i: usize, tr: &mut Tracer) {
        self.incarnation[i] += 1;
        let cfg =
            NodeConfig::new(NodeId(i as u32), N, self.incarnation[i], self.neighbors[i].clone());
        let now = self.now;
        let (core, out) = tr.span("node.new", |_| NodeCore::new(cfg, now));
        self.nodes[i] = Some(core);
        self.reach_dirty = true;
        self.absorb(i, out);
        self.refresh(i, tr);
    }
}
