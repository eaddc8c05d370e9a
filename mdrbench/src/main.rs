//! The repository benchmark: one named workload, one seed, one thread.
//!
//! ```text
//! cargo run --release --manifest-path mdrbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is driven from outside through the crates' public
//! API. A run repeats set-up (generate inputs, run the constructors)
//! and the measured work until `--seconds` is spent, checks every
//! repetition's outputs, checks that repetitions of the seed computed
//! the same thing, and prints as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics taken from
//! spans around each layer call (`--trace 1`; traced and untraced
//! repetitions alternate, so the tracing overhead is measured in the
//! same process). Times are scaled to the host's speed by a reference
//! kernel timed between units of work (`calib`). The line before it
//! (`detail {...}`) carries workload-specific figures. See `README.md`
//! for the metric map.

mod calib;
mod fleet;
mod fluid;
mod packet;
mod stats;
mod trace;
mod workload;

use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Outcome;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["packet_paper", "fluid_isp1k", "fleet_churn"];
/// Set-up is timed at least this many times per run (`setup_s` is the
/// median).
const MIN_SETUPS: usize = 9;
/// ...and until the timed set-ups add up to this many seconds.
const MIN_SETUP_TOTAL_S: f64 = 0.5;

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| **w == val);
                workload = Some(*w.ok_or_else(|| format!("unknown workload {val}"))?);
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                seconds = Some(val.parse().map_err(|_| format!("bad seconds {val}"))?);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A workload with its inputs generated and constructors run.
enum Ready {
    Packet(Box<packet::Packet>),
    Fluid(Box<fluid::Fluid>),
    Fleet(fleet::Fleet),
}

fn setup(workload: &str, seed: u64, tr: &mut Tracer) -> Result<Ready, String> {
    Ok(match workload {
        "packet_paper" => Ready::Packet(Box::new(packet::Packet::setup(seed, tr)?)),
        "fluid_isp1k" => Ready::Fluid(Box::new(fluid::Fluid::setup(seed, tr)?)),
        "fleet_churn" => Ready::Fleet(fleet::Fleet::setup(seed, tr)),
        _ => return Err(format!("unknown workload {workload}")),
    })
}

fn input_digest(workload: &str, seed: u64) -> u64 {
    match workload {
        "packet_paper" => packet::input_digest(seed),
        "fluid_isp1k" => fluid::input_digest(seed),
        _ => fleet::input_digest(seed),
    }
}

/// The layer whose calls are the workload's engine events.
fn engine_layer(workload: &str) -> &'static str {
    match workload {
        "packet_paper" => "sim",
        "fleet_churn" => "node",
        _ => "fluid",
    }
}

impl Ready {
    fn run(self, tr: &mut Tracer, meter: &mut calib::Meter<'_>) -> Outcome {
        match self {
            Ready::Packet(w) => (*w).run(tr, meter),
            Ready::Fluid(w) => (*w).run(tr),
            Ready::Fleet(w) => w.run(tr, meter),
        }
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad line {line}"))?;
    Ok(kb / 1024.0)
}

/// Everything one run measured.
struct Run {
    /// Set-up times, scaled to the reference kernel's nominal speed (s).
    setup_s: Vec<f64>,
    /// The same set-up times as measured (s).
    raw_setup_s: Vec<f64>,
    /// Untraced repetitions' work, scaled to the nominal speed (s).
    wall_s: Vec<f64>,
    /// The same repetitions' work as measured (s).
    raw_wall_s: Vec<f64>,
    /// Traced repetitions' work, scaled to the nominal speed (s).
    traced_wall_s: Vec<f64>,
    /// `packet_paper`, traced runs: MP arm times (s) without an
    /// observer and with the `Null` observer, run back to back.
    null_probe: Vec<(f64, f64)>,
    outcomes: Vec<(bool, Outcome)>,
    /// Run-level checks (input generation, repeatability, the `Null`
    /// observer), each with the first failure seen.
    checks: BTreeMap<&'static str, Option<String>>,
}

impl Run {
    fn check(&mut self, name: &'static str, failure: Option<String>) {
        let slot = self.checks.entry(name).or_insert(None);
        if slot.is_none() {
            *slot = failure;
        }
    }
}

fn measure(args: &Args, tracer: &mut Tracer) -> Result<Run, String> {
    let mut off = Tracer::new(false, 0);
    let mut run = Run {
        setup_s: Vec::new(),
        raw_setup_s: Vec::new(),
        wall_s: Vec::new(),
        raw_wall_s: Vec::new(),
        traced_wall_s: Vec::new(),
        null_probe: Vec::new(),
        outcomes: Vec::new(),
        checks: BTreeMap::new(),
    };
    let distinct =
        input_digest(args.workload, args.seed) != input_digest(args.workload, args.seed ^ 1);
    run.check(
        "inputs",
        (!distinct).then(|| "seeds differing in one bit generated identical inputs".into()),
    );
    let (workload, seed) = (args.workload, args.seed);
    let mut setups = calib::SetupSampler::new(move || {
        let mut off = Tracer::new(false, 0);
        let t = Instant::now();
        let ready = setup(workload, seed, &mut off)?;
        let secs = t.elapsed().as_secs_f64();
        drop(ready);
        Ok(secs)
    });
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rep_s: Vec<f64> = Vec::new();
    for i in 0.. {
        // Traced runs alternate untraced and traced repetitions.
        let traced = args.trace && i % 2 == 1;
        let tr = if traced { &mut *tracer } else { &mut off };
        let t = Instant::now();
        let ready = tr.span("setup", |tr| setup(args.workload, args.seed, tr))?;
        let mut meter = calib::Meter::start(tr, &mut setups);
        let out = tr.span("rep", |tr| ready.run(tr, &mut meter));
        let (raw, wall) = meter.finish(tr);
        if traced {
            run.traced_wall_s.push(wall);
            if args.workload == "packet_paper" {
                match packet::null_observer_probe(args.seed) {
                    Ok((off, null)) => {
                        run.null_probe.push((off, null));
                        run.check("null_observer", None);
                    }
                    Err(e) => run.check("null_observer", Some(e)),
                }
            }
        } else {
            run.wall_s.push(wall);
            run.raw_wall_s.push(raw);
        }
        run.outcomes.push((traced, out));
        rep_s.push(t.elapsed().as_secs_f64());
        let next = median(&rep_s).unwrap_or(0.0);
        let done = !run.wall_s.is_empty() && (!args.trace || !run.traced_wall_s.is_empty());
        if done && start.elapsed().as_secs_f64() + next > budget.as_secs_f64() {
            break;
        }
    }
    // Top up the set-up slices taken during the repetitions until the
    // median rests on enough set-ups and enough time to be steady.
    while setups.error.is_none()
        && (setups.raw_s.len() < MIN_SETUPS || setups.total_s() < MIN_SETUP_TOTAL_S)
    {
        calib::sample(&mut setups);
    }
    if let Some(e) = setups.error.take() {
        return Err(e);
    }
    run.setup_s = setups.scaled_s;
    run.raw_setup_s = setups.raw_s;
    check_repeats(&mut run);
    Ok(run)
}

/// Repetitions of one seed must compute the same thing: equal digests
/// everywhere, equal work counts among repetitions of the same kind.
fn check_repeats(run: &mut Run) {
    let Some((_, first)) = run.outcomes.first() else { return };
    let first_traced = run.outcomes.iter().find(|(t, _)| *t).map(|(_, o)| o);
    let mut failure = None;
    for (traced, o) in &run.outcomes {
        let same_kind = if *traced { first_traced.unwrap_or(first) } else { first };
        if o.digest != first.digest {
            failure = Some(format!("result digest {:x} != {:x}", o.digest, first.digest));
        } else if o.counts != same_kind.counts {
            failure = Some("work counts differ between repetitions of one seed".into());
        }
    }
    run.check("repeatable", failure);
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(run: &Run, first: &Outcome) -> Result<Metrics, String> {
    let wall = median(&run.wall_s).ok_or("no untraced repetition")?;
    Ok(vec![
        ("setup_s".into(), median(&run.setup_s).ok_or("no set-up")?, "s"),
        ("wall_s".into(), wall, "s"),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
        ("events_per_s".into(), first.events as f64 / wall, "1/s"),
        ("result_ms".into(), first.result_ms, "ms"),
    ])
}

/// Per-layer metrics: self-time shares and per-event cost from the
/// spans, work counts from a traced repetition, overheads from the
/// traced/untraced pairs.
fn per_layer(args: &Args, run: &Run, spans: &[trace::Span]) -> Result<Metrics, String> {
    let (_, traced) = run.outcomes.iter().find(|(t, _)| *t).ok_or("no traced repetition")?;
    let untraced = median(&run.wall_s).ok_or("no untraced repetition")?;
    let traced_wall = median(&run.traced_wall_s).ok_or("no traced repetition")?;
    let reps = run.traced_wall_s.len() as f64;
    let mut layer_ns = trace::layer_self_ns(spans, "rep");
    // The reference kernel's runs between units of work are not work.
    layer_ns.remove("calib");
    let total_ns: u64 = layer_ns.values().sum();
    let share =
        |layer: &str| layer_ns.get(layer).copied().unwrap_or(0) as f64 / (total_ns.max(1)) as f64;
    let engine_ns = layer_ns.get(engine_layer(args.workload)).copied().unwrap_or(0) as f64 / reps;
    let count = |k: &str| traced.counts.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // The MP arm with the `Null` observer over the unobserved MP arm.
    let null_overhead = {
        let off: Vec<f64> = run.null_probe.iter().map(|p| p.0).collect();
        let null: Vec<f64> = run.null_probe.iter().map(|p| p.1).collect();
        match (median(&null), median(&off)) {
            (Some(n), Some(o)) => n / o,
            _ => 0.0,
        }
    };
    let mut m: Metrics = vec![
        ("trace.overhead_frac".into(), traced_wall / untraced, "ratio"),
        ("engine.ns_per_event".into(), ratio(engine_ns, traced.events as f64), "ns"),
        ("bench.share".into(), share("rep") + share("check"), "frac"),
    ];
    for layer in ["sim", "opt", "fluid", "node", "proto", "routing"] {
        m.push((format!("{layer}.share"), share(layer), "frac"));
    }
    for name in [
        "sim.events",
        "sim.delivered",
        "sim.dropped",
        "opt.iterations",
        "fluid.events",
        "routing.mpda_events",
        "routing.mtu_runs",
        "routing.lsu_sent",
        "routing.entries_sent",
        "routing.route_changes",
        "flow.ih_runs",
        "flow.ah_runs",
        "proto.control_bytes",
        "proto.datagrams.hello",
        "proto.datagrams.data",
        "proto.datagrams.ack",
        "node.records",
    ] {
        m.push((name.into(), count(name), "count"));
    }
    let datagrams = count("proto.datagrams.hello")
        + count("proto.datagrams.data")
        + count("proto.datagrams.ack");
    m.push(("node.records_per_datagram".into(), ratio(count("node.records"), datagrams), "ratio"));
    m.push(("telemetry.null_overhead_frac".into(), null_overhead, "ratio"));
    Ok(m)
}

/// Workload-specific figures: the outcome's own detail plus, in a
/// traced run, per-call timings by span name.
fn detail(run: &Run, first: &Outcome, spans: &[trace::Span]) -> BTreeMap<String, f64> {
    let mut d = first.detail.clone();
    d.insert("digest_lo32".into(), (first.digest & 0xffff_ffff) as f64);
    d.insert("reps".into(), run.wall_s.len() as f64);
    if let Some(spread) = stats::iqr_frac(&run.wall_s) {
        d.insert("wall_s_iqr_frac".into(), spread);
    }
    if let Some(raw) = median(&run.raw_wall_s) {
        d.insert("raw_wall_s".into(), raw);
    }
    if let Some(raw) = median(&run.raw_setup_s) {
        d.insert("raw_setup_s".into(), raw);
    }
    if !spans.is_empty() {
        let reps = run.traced_wall_s.len().max(1) as f64;
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in spans {
            by_name.entry(s.name).or_default().push(s.dur_ns() as f64);
        }
        for (name, durs) in by_name {
            d.insert(format!("span.{name}_s"), durs.iter().sum::<f64>() / reps / 1e9);
            for (p, tag) in [(50.0, "p50"), (99.0, "p99")] {
                if let Some(v) = stats::percentile(&durs, p) {
                    d.insert(format!("span.{name}_us_{tag}"), v / 1e3);
                }
            }
        }
    }
    d
}

/// A flat JSON object of finite numbers.
fn json_object(m: &BTreeMap<String, f64>) -> String {
    let parts: Vec<String> =
        m.iter().filter(|(_, v)| v.is_finite()).map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", parts.join(", "))
}

fn json_metrics(m: &Metrics) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, v, unit) in m {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        parts.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn run(args: &Args) -> Result<(String, String), String> {
    let run_id = u64::from(std::process::id()) << 32
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
    let mut tracer = Tracer::new(args.trace, run_id);
    let run = measure(args, &mut tracer)?;
    let (_, first) = run.outcomes.first().ok_or("no repetition ran")?;
    let first = first.clone();
    // Operations of every repetition, plus the run-level checks.
    let mut failures: Vec<String> = Vec::new();
    for (_, o) in &run.outcomes {
        failures.extend(o.failures.iter().map(|(op, msg)| format!("{op}: {msg}")));
    }
    failures.extend(run.checks.iter().filter_map(|(c, f)| f.as_ref().map(|m| format!("{c}: {m}"))));
    let attempted: u64 =
        run.outcomes.iter().map(|(_, o)| o.attempted).sum::<u64>() + run.checks.len() as u64;
    let failed = failures.len() as u64;
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let metrics = if args.trace {
        // One file per workload, the latest traced run's.
        let path = PathBuf::from(".bench_trace").join(format!("{}.spans.csv", args.workload));
        if let Err(e) = tracer.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        per_layer(args, &run, tracer.spans())?
    } else {
        end_to_end(&run, &first)?
    };
    let detail_json = json_object(&detail(&run, &first, tracer.spans()));
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted,
        failed,
        json_metrics(&metrics)?
    );
    Ok((detail_json, result))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: mdrbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((detail, result)) => {
            println!("detail {detail}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
