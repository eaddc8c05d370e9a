//! Simulator throughput benchmarks: events/second of the
//! discrete-event engine on the evaluation topologies. These bound how
//! much simulated time a figure run costs and catch regressions in the
//! packet hot path (forwarding, queueing, estimation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mdr::prelude::*;
use mdr_sim::events::{Ev, EventQueue};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    for (name, t, flows) in [
        ("net1", topo::net1(), topo::net1_flows(1_500_000.0)),
        ("cairn", topo::cairn(), topo::cairn_flows(&topo::cairn(), 2_000_000.0)),
    ] {
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        // Approximate packets simulated: rate/L x (warmup + duration) x flows.
        let sim_seconds = 6.0;
        let pkts: u64 = flows.iter().map(|f| (f.rate / 1000.0 * sim_seconds) as u64).sum();
        g.throughput(Throughput::Elements(pkts));
        g.bench_with_input(BenchmarkId::new("packets", name), &name, |b, _| {
            b.iter(|| {
                let cfg = SimConfig { warmup: 3.0, duration: 3.0, seed: 1, ..Default::default() };
                let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), cfg);
                black_box(sim.run())
            })
        });
    }
    g.finish();
}

fn bench_events_per_second(c: &mut Criterion) {
    // Exact events/second of the engine: the event count comes from the
    // report itself (`events_processed`), so the throughput figure is
    // precise rather than a packet-rate approximation.
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    for (name, t, flows) in [
        ("net1", topo::net1(), topo::net1_flows(1_500_000.0)),
        ("cairn", topo::cairn(), topo::cairn_flows(&topo::cairn(), 2_000_000.0)),
    ] {
        let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
        let cfg = SimConfig { warmup: 3.0, duration: 3.0, seed: 1, ..Default::default() };
        let events =
            Simulator::new(&t, &traffic, &Scenario::new(), cfg.clone()).run().events_processed;
        g.throughput(Throughput::Elements(events));
        g.bench_with_input(BenchmarkId::new("events", name), &name, |b, _| {
            b.iter(|| {
                let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), cfg.clone());
                black_box(sim.run())
            })
        });
    }
    g.finish();
}

fn bench_run_many_scaling(c: &mut Criterion) {
    // Multi-run scaling: a batch of independent simulations through the
    // serial loop vs the parallel harness. On a single-core host the
    // two are expected to tie; on multi-core the parallel batch should
    // approach jobs/core scaling.
    let mut g = c.benchmark_group("batch");
    g.sample_size(10);
    let t = topo::cairn();
    let flows = topo::cairn_flows(&t, 1_500_000.0);
    let traffic = TrafficMatrix::from_flows(&t, &flows).unwrap();
    let jobs = || -> Vec<SimJob> {
        (0..4u64)
            .map(|seed| {
                let cfg =
                    SimConfig { warmup: 1.0, duration: 2.0, seed: seed + 1, ..Default::default() };
                SimJob::new(&t, &traffic, cfg)
            })
            .collect()
    };
    g.bench_function("serial_4_runs", |b| {
        b.iter(|| black_box(jobs().iter().map(|j| j.run()).collect::<Vec<_>>()))
    });
    g.bench_function("run_many_4_runs", |b| b.iter(|| black_box(run_many(jobs()))));
    g.finish();
}

fn bench_boot_convergence(c: &mut Criterion) {
    // Control-plane-only: how fast the in-simulator protocol converges
    // from cold boot (no data traffic).
    let mut g = c.benchmark_group("boot");
    g.sample_size(10);
    for (name, t) in [("net1", topo::net1()), ("cairn", topo::cairn())] {
        let traffic = TrafficMatrix::empty(t.node_count());
        g.bench_with_input(BenchmarkId::new("control_plane", name), &name, |b, _| {
            b.iter(|| {
                let cfg = SimConfig { warmup: 1.0, duration: 1.0, seed: 1, ..Default::default() };
                let mut sim = Simulator::new(&t, &traffic, &Scenario::new(), cfg);
                black_box(sim.run())
            })
        });
    }
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    // The queue alone under the DES "hold" pattern: pop the earliest
    // event, then push its successor at now + Exp(1). One iteration is
    // one pop+push, so time/iter is ns per pop+push at a steady depth.
    // The exponential draws are precomputed so the RNG stays out of the
    // measurement.
    let mut rng = SmallRng::seed_from_u64(1);
    let gaps: Vec<f64> = (0..4096).map(|_| -rng.gen::<f64>().max(1e-12).ln()).collect();
    let gaps = &gaps[..];
    let mut g = c.benchmark_group("event_queue");
    for depth in [64usize, 1024, 16_384] {
        let mut q = EventQueue::with_capacity(depth);
        for (i, gap) in gaps.iter().cycle().take(depth).enumerate() {
            q.push(*gap, Ev::Generate { flow: i, epoch: 0 });
        }
        let mut next = 0;
        let mut hold = move || {
            let (now, ev) = q.pop().expect("the depth stays constant");
            q.push(now + gaps[next % gaps.len()], ev);
            next += 1;
        };
        // Reach the steady-state key spread before timing.
        for _ in 0..4 * depth {
            hold();
        }
        g.bench_with_input(BenchmarkId::new("hold", depth), &depth, |b, _| b.iter(&mut hold));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_engine,
    bench_events_per_second,
    bench_run_many_scaling,
    bench_boot_convergence
);
criterion_main!(benches);
