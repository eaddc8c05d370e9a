//! What every workload hands back, and the small deterministic helpers
//! the workloads share (seeded random streams and result digests).

use mdr_routing::mpda::RouterStats;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The result of one measured repetition of a workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Engine events processed: packet-DES events, fluid-engine events,
    /// or datagrams delivered to nodes.
    pub events: u64,
    /// The workload's headline result in virtual time (ms): the MP
    /// arm's mean delay for the simulators, the mean reconvergence time
    /// for the fleet. Repeats exactly for a fixed seed.
    pub result_ms: f64,
    /// Operations (arms or episodes) attempted.
    pub attempted: u64,
    /// Operations whose correctness check failed, each with the first
    /// failure seen.
    pub failures: BTreeMap<String, String>,
    /// Digest of everything the program computed; equal across
    /// repetitions of one seed, traced or not.
    pub digest: u64,
    /// Deterministic work counts (`routing.lsu_sent`, ...), keyed by
    /// per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Workload-specific figures printed in the detail line (virtual
    /// times, per-operation timings, ratios).
    pub detail: BTreeMap<String, f64>,
}

impl Outcome {
    /// Add `v` to the count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Add one router's MPDA work counters to the `routing.*` counts.
    pub fn router_stats(&mut self, s: RouterStats) {
        self.count("routing.mpda_events", s.events as f64);
        self.count("routing.mtu_runs", s.mtu_runs as f64);
        self.count("routing.lsu_sent", s.lsu_sent as f64);
        self.count("routing.entries_sent", s.entries_sent as f64);
    }

    /// Record that operation `op` failed a correctness check.
    pub fn fail(&mut self, op: &str, msg: String) {
        self.failures.entry(op.to_string()).or_insert(msg);
    }
}

/// FNV-1a digest over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in one word.
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in a float by its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The random stream `k` of a workload's seed, so the topology, the
/// traffic and the fault schedule each draw from their own generator.
pub fn stream(seed: u64, k: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// CPU time this thread has used, in nanoseconds (`None` where the
/// kernel does not expose it).
pub fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Run `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
