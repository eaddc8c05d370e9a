//! `packet_paper`: the paper's NET1 experiment (the Fig. 12 set-up) in
//! the packet simulator, with three arms — OPT (Gallager's solution,
//! then a packet run with that routing held fixed), MP-TL-10-TS-2 and
//! SP-TL-10.

use crate::calib::Meter;
use crate::trace::Tracer;
use crate::workload::{timed, Digest, Outcome};
use mdr_flow::{AllocHeuristic, Mode};
use mdr_net::{topo, Mm1, Topology, TrafficMatrix};
use mdr_opt::GallagerConfig;
use mdr_sim::{ObserverMode, Scenario, SimConfig, SimEvent, SimReport, Simulator};
use std::time::Instant;

/// Per-flow rate of the NET1 figures (bits/s), as in the figure harness.
const NET1_RATE: f64 = 2_500_000.0;
/// Simulated warm-up and measured duration of every arm (s).
const WARMUP: f64 = 30.0;
const DURATION: f64 = 60.0;
/// Measured OPT delays must sit within this share of the analytic ones
/// (the tolerance of the `opt_runs_on_net1` unit test).
const OPT_TOLERANCE: f64 = 0.25;

/// Generated inputs and constructed MP/SP simulators.
pub struct Packet {
    topo: Topology,
    traffic: TrafficMatrix,
    models: Vec<Mm1>,
    seed: u64,
    mp: Simulator,
    sp: Simulator,
}

fn config(seed: u64, mode: Mode, observer: ObserverMode) -> SimConfig {
    SimConfig {
        mode,
        t_long: 10.0,
        t_short: 2.0,
        warmup: WARMUP,
        duration: DURATION,
        seed,
        mean_packet_bits: 1000.0,
        observer,
        ..Default::default()
    }
}

/// Digest of the generated inputs for `seed`: the NET1 topology and
/// flows are the paper's, so the seed drives the packet process.
pub fn input_digest(seed: u64) -> u64 {
    let t = topo::net1();
    let mut d = Digest::default();
    d.u64(seed);
    d.u64(t.node_count() as u64);
    for f in topo::net1_flows(NET1_RATE) {
        d.u64(f.src.0 as u64);
        d.u64(f.dst.0 as u64);
        d.f64(f.rate);
    }
    d.finish()
}

impl Packet {
    /// Generate the inputs for `seed` and construct the MP and SP
    /// simulators. A traced set-up attaches a recording observer (for
    /// the route-change and allocation counts) and the `Null` arm.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let traced = tr.enabled();
        let topo = tr.span("gen.topology", |_| topo::net1());
        let flows = topo::net1_flows(NET1_RATE);
        let traffic = tr
            .span("gen.traffic", |_| TrafficMatrix::from_flows(&topo, &flows))
            .map_err(|e| format!("NET1 traffic: {e}"))?;
        let models: Vec<Mm1> =
            topo.links().iter().map(|l| Mm1::new(l.capacity, l.prop_delay, 1000.0)).collect();
        let observer =
            if traced { ObserverMode::Recording { data_plane: false } } else { ObserverMode::Off };
        let scenario = Scenario::new();
        let mut build = |mode, observer| {
            tr.span("sim.new", |_| {
                Simulator::new(&topo, &traffic, &scenario, config(seed, mode, observer))
            })
        };
        let mp = build(Mode::Multipath, observer.clone());
        let sp = build(Mode::SinglePath, observer);
        Ok(Packet { topo, traffic, models, seed, mp, sp })
    }

    /// Run the three arms and check them; the meter may time its
    /// reference kernel between arms.
    pub fn run(self, tr: &mut Tracer, meter: &mut Meter<'_>) -> Outcome {
        let Packet { topo, traffic, models, seed, mut mp, mut sp } = self;
        let mut out = Outcome::default();
        let mut digest = Digest::default();
        // Seconds each arm's packet run took: OPT, MP, SP.
        let mut run_s = [0.0; 3];

        // OPT: solve, evaluate, then measure the allocation in the
        // packet simulator with routing held fixed.
        out.attempted += 1;
        let total = traffic.total_rate().max(1.0);
        let gcfg = GallagerConfig { eta: total * total * 2e-7, max_iters: 5000, tol: 1e-10 };
        let solved = tr.span("opt.solve", |_| mdr_opt::solve(&topo, &models, &traffic, gcfg));
        let opt_report = match solved {
            Err(e) => {
                out.fail("OPT", format!("solve: {e:?}"));
                None
            }
            Ok(sol) => {
                out.count("opt.iterations", sol.iterations as f64);
                let eval = tr.span("opt.evaluate", |_| {
                    mdr_opt::evaluate(&topo, &models, &traffic, &sol.vars)
                });
                let cfg = SimConfig {
                    fixed_routing: Some(sol.vars),
                    ..config(seed, Mode::Multipath, ObserverMode::Off)
                };
                let mut sim =
                    tr.span("sim.new", |_| Simulator::new(&topo, &traffic, &Scenario::new(), cfg));
                let (rep, secs) = tr.span("sim.run.opt", |_| timed(|| sim.run()));
                run_s[0] = secs;
                meter.checkpoint(tr);
                match eval {
                    Err(e) => out.fail("OPT", format!("evaluate: {e:?}")),
                    Ok(ev) => {
                        check_delays("OPT", &rep, &mut out);
                        for (m, a) in rep.mean_delays_ms.iter().zip(&ev.flow_delays) {
                            let a_ms = a * 1000.0;
                            // Written so that a NaN delay fails too.
                            let close = (m - a_ms).abs() / a_ms < OPT_TOLERANCE;
                            if !close {
                                out.fail("OPT", format!("measured {m} ms vs analytic {a_ms} ms"));
                            }
                        }
                        out.detail.insert("opt_analytic_ms".into(), 1000.0 * ev.mean_flow_delay());
                    }
                }
                Some(rep)
            }
        };

        out.attempted += 2;
        let (mp_rep, mp_s) = tr.span("sim.run.mp", |_| timed(|| mp.run()));
        meter.checkpoint(tr);
        let (sp_rep, sp_s) = tr.span("sim.run.sp", |_| timed(|| sp.run()));
        run_s[1..].copy_from_slice(&[mp_s, sp_s]);
        check_delays("MP", &mp_rep, &mut out);
        check_delays("SP", &sp_rep, &mut out);
        let mp_not_worse = mp_rep.mean_delay_ms() <= sp_rep.mean_delay_ms();
        if !mp_not_worse {
            out.fail(
                "MP",
                format!(
                    "mean delay {} ms above SP's {} ms",
                    mp_rep.mean_delay_ms(),
                    sp_rep.mean_delay_ms()
                ),
            );
        }

        tr.span("routing.stats", |_| {
            for sim in [&mp, &sp] {
                for i in topo.nodes() {
                    out.router_stats(sim.router(i).stats());
                }
            }
        });

        let arms = [("opt", opt_report.as_ref()), ("mp", Some(&mp_rep)), ("sp", Some(&sp_rep))];
        for ((arm, rep), secs) in arms.into_iter().zip(run_s) {
            let Some(rep) = rep else { continue };
            out.detail.insert(format!("sim.run_s.{arm}"), secs);
            let ns_per_event = secs * 1e9 / rep.events_processed as f64;
            out.detail.insert(format!("sim.ns_per_event.{arm}"), ns_per_event);
            out.events += rep.events_processed;
            out.count("sim.events", rep.events_processed as f64);
            out.count("sim.delivered", rep.delivered as f64);
            out.count("sim.dropped", rep.dropped as f64);
            out.count("proto.control_bytes", rep.control_bytes as f64);
            out.detail.insert(format!("sim.events.{arm}"), rep.events_processed as f64);
            out.detail.insert(format!("{arm}_delay_ms"), rep.mean_delay_ms());
            count_telemetry(rep, &mut out);
            digest.u64(rep.events_processed);
            digest.u64(rep.delivered);
            digest.u64(rep.control_bytes);
            for &d in &rep.mean_delays_ms {
                digest.f64(d);
            }
        }
        if let Some(opt) = &opt_report {
            out.detail.insert("mp_opt_ratio".into(), mp_rep.mean_delay_ms() / opt.mean_delay_ms());
        }
        for (k, v) in &out.counts {
            // Route changes come from the observer, so traced runs only.
            if (k.starts_with("routing.") && *k != "routing.route_changes")
                || *k == "opt.iterations"
            {
                digest.f64(*v);
            }
        }
        out.result_ms = mp_rep.mean_delay_ms();
        out.digest = digest.finish();
        out
    }
}

/// Time the MP arm back to back without an observer and with the
/// `Null` observer attached: what observation costs when nothing is
/// kept. Returns both run times (s); fails if the two arms computed
/// different delays.
pub fn null_observer_probe(seed: u64) -> Result<(f64, f64), String> {
    let topo = topo::net1();
    let traffic = TrafficMatrix::from_flows(&topo, &topo::net1_flows(NET1_RATE))
        .map_err(|e| format!("NET1 traffic: {e}"))?;
    let timed = |observer| {
        let cfg = config(seed, Mode::Multipath, observer);
        let mut sim = Simulator::new(&topo, &traffic, &Scenario::new(), cfg);
        let t = Instant::now();
        let rep = sim.run();
        (t.elapsed().as_secs_f64(), rep.mean_delays_ms)
    };
    let (off_s, off) = timed(ObserverMode::Off);
    let (null_s, null) = timed(ObserverMode::Null);
    if off != null {
        return Err("MP under the Null observer computed different delays".into());
    }
    Ok((off_s, null_s))
}

/// Every per-flow delay must be finite and positive.
fn check_delays(arm: &str, rep: &SimReport, out: &mut Outcome) {
    if rep.mean_delays_ms.is_empty() {
        out.fail(arm, "no flows measured".into());
    }
    for (i, d) in rep.mean_delays_ms.iter().enumerate() {
        if !(d.is_finite() && *d > 0.0) {
            out.fail(arm, format!("flow {i} delay {d} ms"));
        }
    }
}

/// Route changes and allocator runs from a recording observer's events
/// (traced runs only).
pub fn count_telemetry(rep: &SimReport, out: &mut Outcome) {
    let Some(events) = rep.telemetry.as_ref().and_then(|t| t.recorded.as_ref()) else { return };
    for ev in events {
        match ev {
            SimEvent::RouteChange { .. } => out.count("routing.route_changes", 1.0),
            SimEvent::AllocShift { heuristic: AllocHeuristic::Initial, .. } => {
                out.count("flow.ih_runs", 1.0)
            }
            SimEvent::AllocShift { heuristic: AllocHeuristic::Incremental, .. } => {
                out.count("flow.ah_runs", 1.0)
            }
            _ => {}
        }
    }
}
