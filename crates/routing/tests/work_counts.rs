//! Work-count pin: one fixed MPDA scenario — cold boot on NET1, one
//! link failure, one cost change — with its summed protocol counters
//! pinned exactly. A change that alters what MPDA sends, or how much
//! work it does to get there, fails here without any timing threshold.

use mdr_net::{topo, NodeId};
use mdr_routing::mpda::RouterStats;
use mdr_routing::Harness;

fn scenario_totals() -> RouterStats {
    let t = topo::net1();
    let cost = |a: NodeId, b: NodeId| 1.0 + ((a.0 * 7 + b.0 * 3) % 5) as f64;
    let mut h = Harness::mpda(&t, cost, 7);
    assert!(h.run_to_quiescence(1_000_000), "cold boot did not quiesce");
    h.fail_link(NodeId(0), NodeId(1));
    assert!(h.run_to_quiescence(1_000_000), "link failure did not quiesce");
    h.change_cost(NodeId(1), NodeId(3), 9.5);
    assert!(h.run_to_quiescence(1_000_000), "cost change did not quiesce");
    h.assert_converged();
    let mut sum = RouterStats::default();
    for r in &h.routers {
        let s = r.stats();
        sum.events += s.events;
        sum.lsu_sent += s.lsu_sent;
        sum.acks_sent += s.acks_sent;
        sum.entries_sent += s.entries_sent;
        sum.lsu_received += s.lsu_received;
        sum.mtu_runs += s.mtu_runs;
        sum.spf_runs += s.spf_runs;
    }
    sum
}

#[test]
fn net1_fail_and_cost_change_work_counts() {
    let s = scenario_totals();
    // Protocol behaviour: messages, entries and MTUs.
    assert_eq!(s.events, 237);
    assert_eq!(s.lsu_sent, 198);
    assert_eq!(s.acks_sent, 96);
    assert_eq!(s.entries_sent, 362);
    assert_eq!(s.lsu_received, 198);
    assert_eq!(s.mtu_runs, 75);
    // Dijkstra work. Running one SPF per received LSU plus one per MTU
    // would be 198 + 75 = 273; LSUs that leave the sender's neighbor
    // table unchanged (ACK-only ones, mostly) skip theirs.
    assert!(s.spf_runs < s.lsu_received + s.mtu_runs);
    assert_eq!(s.spf_runs, 190);
}
