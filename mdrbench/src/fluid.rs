//! `fluid_isp1k`: the fluid engine over a two-tier ISP of 1000 routers
//! with elephant/mice traffic, under the quiescent control plane (MP
//! arm): fluid settling with no LSUs and no MPDA.

use crate::packet::count_telemetry;
use crate::trace::Tracer;
use crate::workload::{stream, timed, Digest, Outcome};
use mdr_flow::Mode;
use mdr_net::{gen, Flow, NodeId, Topology, TrafficMatrix};
use mdr_sim::{FluidSimulator, ObserverMode, Scenario, SimConfig, SimMode};
use rand::Rng;

/// Simulated warm-up and measured duration (s).
const WARMUP: f64 = 1.0;
const DURATION: f64 = 1.0;

/// Generate the topology and flows for `seed`.
fn generate(seed: u64, tr: &mut Tracer) -> (Topology, Vec<Flow>) {
    let (tseed, fseed) = (stream(seed, 1).gen(), stream(seed, 2).gen());
    let topo = tr.span("gen.topology", |_| gen::two_tier_isp(50, 19, tseed));
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let flows =
        tr.span("gen.traffic", |_| gen::elephant_mice_flows(&nodes, 1000, 1.5e8, 0.7, fseed));
    (topo, flows)
}

/// Digest of the generated inputs for `seed`.
pub fn input_digest(seed: u64) -> u64 {
    let (topo, flows) = generate(seed, &mut Tracer::new(false, 0));
    let mut d = Digest::default();
    for l in topo.links() {
        d.u64(l.from.0 as u64);
        d.u64(l.to.0 as u64);
    }
    for f in &flows {
        d.u64(f.src.0 as u64);
        d.u64(f.dst.0 as u64);
        d.f64(f.rate);
    }
    d.finish()
}

/// Generated inputs and a constructed fluid simulator.
pub struct Fluid {
    sim: FluidSimulator,
}

impl Fluid {
    /// Generate the inputs for `seed` and construct the simulator. A
    /// traced set-up attaches a recording observer for the route-change
    /// and allocation counts.
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let (topo, flows) = generate(seed, tr);
        let traffic = tr
            .span("gen.traffic", |_| TrafficMatrix::from_flows(&topo, &flows))
            .map_err(|e| format!("generated flows: {e}"))?;
        let cfg = SimConfig {
            mode: Mode::Multipath,
            sim_mode: SimMode::FluidQuiescent,
            t_long: 10.0,
            t_short: 2.0,
            warmup: WARMUP,
            duration: DURATION,
            seed,
            observer: if tr.enabled() {
                ObserverMode::Recording { data_plane: false }
            } else {
                ObserverMode::Off
            },
            ..Default::default()
        };
        let sim =
            tr.span("fluid.new", |_| FluidSimulator::new(&topo, &traffic, &Scenario::new(), cfg));
        Ok(Fluid { sim })
    }

    /// Run the MP arm and check it.
    pub fn run(self, tr: &mut Tracer) -> Outcome {
        let Fluid { mut sim } = self;
        let mut out = Outcome { attempted: 1, ..Default::default() };
        let (rep, run_s) = tr.span("fluid.run", |_| timed(|| sim.run()));
        let mean = rep.mean_delay_ms();
        if !(mean.is_finite() && mean > 0.0) || rep.mean_delays_ms.iter().any(|d| !d.is_finite()) {
            out.fail("MP", format!("non-finite or zero delays (mean {mean} ms)"));
        }
        if rep.delivered == 0 {
            out.fail("MP", "nothing delivered".into());
        }
        out.events = rep.events_processed;
        out.count("fluid.events", rep.events_processed as f64);
        out.count("sim.delivered", rep.delivered as f64);
        out.count("sim.dropped", rep.dropped as f64);
        out.count("proto.control_bytes", rep.control_bytes as f64);
        count_telemetry(&rep, &mut out);
        let sim_s = WARMUP + DURATION;
        out.detail.insert("sim_seconds".into(), sim_s);
        out.detail.insert("fluid.run_s".into(), run_s);
        out.detail.insert("fluid.ms_per_sim_s".into(), run_s * 1000.0 / sim_s);
        out.detail.insert("control_messages".into(), rep.control_messages as f64);
        out.result_ms = mean;

        let mut d = Digest::default();
        d.u64(rep.events_processed);
        d.u64(rep.delivered);
        d.u64(rep.dropped);
        d.u64(rep.control_bytes);
        for &x in &rep.mean_delays_ms {
            d.f64(x);
        }
        out.digest = d.finish();
        out
    }
}
