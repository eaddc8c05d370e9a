//! Model tests for the flat link-state tables.
//!
//! * `TopoTable` against a `BTreeMap` reference model under random
//!   insert / remove / `apply_entry` / `remove_links_from` sequences:
//!   iteration, per-head slices, lookups, `diff` (entry order included)
//!   and `full_entries` must all agree.
//! * NTU's distance table: under random LSU, link and cost streams, every
//!   `D^i_jk` equals a fresh Dijkstra over `T^i_k` once `k` has sent an
//!   LSU since its link came up — whether or not that LSU changed
//!   `T^i_k` (NTU skips the SPF only when it provably would not change
//!   anything).

use mdr_net::{LinkCost, NodeId, INFINITE_COST};
use mdr_proto::{LsuEntry, LsuMessage, LsuOp};
use mdr_routing::{dijkstra, MpdaRouter, RouterEvent, TopoTable};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Nodes `0..NODES`: few enough that keys collide often.
const NODES: u32 = 6;

type Model = BTreeMap<(NodeId, NodeId), LinkCost>;

#[derive(Debug, Clone)]
enum TableOp {
    Insert(NodeId, NodeId, LinkCost),
    Remove(NodeId, NodeId),
    Apply(LsuEntry),
    RemoveFrom(NodeId),
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    (0..NODES).prop_map(NodeId)
}

/// A handful of distinct costs, so re-inserting an equal cost happens.
fn arb_cost() -> impl Strategy<Value = LinkCost> {
    (1u32..5).prop_map(|c| c as f64 * 0.5)
}

fn arb_entry() -> impl Strategy<Value = LsuEntry> {
    (0u32..3, arb_node(), arb_node(), arb_cost()).prop_map(|(op, h, t, c)| match op {
        0 => LsuEntry::add(h, t, c),
        1 => LsuEntry::change(h, t, c),
        _ => LsuEntry::delete(h, t),
    })
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (arb_node(), arb_node(), arb_cost()).prop_map(|(h, t, c)| TableOp::Insert(h, t, c)),
        (arb_node(), arb_node()).prop_map(|(h, t)| TableOp::Remove(h, t)),
        arb_entry().prop_map(TableOp::Apply),
        arb_node().prop_map(TableOp::RemoveFrom),
    ]
}

fn apply_op(t: &mut TopoTable, m: &mut Model, op: &TableOp) {
    match *op {
        TableOp::Insert(h, tl, c) => {
            t.insert(h, tl, c);
            m.insert((h, tl), c);
        }
        TableOp::Remove(h, tl) => {
            assert_eq!(t.remove(h, tl), m.remove(&(h, tl)));
        }
        TableOp::Apply(ref e) => {
            let changed = match e.op {
                LsuOp::Add | LsuOp::Change => m.insert((e.head, e.tail), e.cost) != Some(e.cost),
                LsuOp::Delete => m.remove(&(e.head, e.tail)).is_some(),
            };
            assert_eq!(t.apply_entry(e), changed, "{e:?}");
        }
        TableOp::RemoveFrom(h) => {
            t.remove_links_from(h);
            m.retain(|&(mh, _), _| mh != h);
        }
    }
}

fn build(ops: &[TableOp]) -> (TopoTable, Model) {
    let (mut t, mut m) = (TopoTable::new(), Model::new());
    for op in ops {
        apply_op(&mut t, &mut m, op);
    }
    (t, m)
}

/// The reference diff: adds and changes in `new`'s key order, then
/// deletes in `old`'s key order.
fn model_diff(old: &Model, new: &Model) -> Vec<LsuEntry> {
    let mut out = Vec::new();
    for (&(h, t), &c) in new {
        match old.get(&(h, t)) {
            None => out.push(LsuEntry::add(h, t, c)),
            Some(&o) if o != c => out.push(LsuEntry::change(h, t, c)),
            Some(_) => {}
        }
    }
    for &(h, t) in old.keys() {
        if !new.contains_key(&(h, t)) {
            out.push(LsuEntry::delete(h, t));
        }
    }
    out
}

fn assert_matches(t: &TopoTable, m: &Model) -> Result<(), TestCaseError> {
    let got: Vec<_> = t.iter().collect();
    let want: Vec<_> = m.iter().map(|(&(h, tl), &c)| (h, tl, c)).collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(t.len(), m.len());
    for h in (0..NODES + 1).map(NodeId) {
        let got: Vec<_> = t.links_from(h).collect();
        let want: Vec<_> = m.iter().filter(|(k, _)| k.0 == h).map(|(k, &c)| (k.1, c)).collect();
        prop_assert_eq!(got, want, "links_from({})", h);
        for tl in (0..NODES + 1).map(NodeId) {
            prop_assert_eq!(t.cost(h, tl), m.get(&(h, tl)).copied());
        }
    }
    let want: Vec<_> = m.iter().map(|(&(h, tl), &c)| LsuEntry::add(h, tl, c)).collect();
    prop_assert_eq!(t.full_entries(), want);
    Ok(())
}

#[derive(Debug, Clone)]
enum Ev {
    Up(NodeId, LinkCost),
    Down(NodeId),
    Cost(NodeId, LinkCost),
    Lsu(NodeId, bool, Vec<LsuEntry>),
}

/// Events at router 0 of a 6-router network; neighbors 1..=4, with 5
/// never linked (its LSUs must be dropped).
fn arb_event() -> impl Strategy<Value = Ev> {
    let nb = || (1u32..5).prop_map(NodeId);
    prop_oneof![
        (nb(), arb_cost()).prop_map(|(k, c)| Ev::Up(k, c)),
        nb().prop_map(Ev::Down),
        (nb(), arb_cost()).prop_map(|(k, c)| Ev::Cost(k, c)),
        ((1u32..6).prop_map(NodeId), any::<bool>(), prop::collection::vec(arb_entry(), 0..4))
            .prop_map(|(k, ack, e)| Ev::Lsu(k, ack, e)),
        // ACK-only LSUs are the common case on the wire.
        nb().prop_map(|k| Ev::Lsu(k, true, Vec::new())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, .. ProptestConfig::default() })]

    #[test]
    fn topo_table_matches_btreemap_model(
        ops in prop::collection::vec(arb_table_op(), 0..40),
        other in prop::collection::vec(arb_table_op(), 0..40),
    ) {
        let (mut t, mut m) = (TopoTable::new(), Model::new());
        for op in &ops {
            apply_op(&mut t, &mut m, op);
            assert_matches(&t, &m)?;
        }
        let (u, um) = build(&other);
        prop_assert_eq!(t.diff(&u), model_diff(&m, &um));
        prop_assert_eq!(u.diff(&t), model_diff(&um, &m));
        prop_assert!(t.diff(&t.clone()).is_empty());
        prop_assert_eq!(t == u, m == um);
    }

    #[test]
    fn topo_table_from_iter_keeps_last_duplicate(
        links in prop::collection::vec((arb_node(), arb_node(), arb_cost()), 0..40),
    ) {
        let t: TopoTable = links.iter().copied().collect();
        let mut m = Model::new();
        for &(h, tl, c) in &links {
            m.insert((h, tl), c);
        }
        assert_matches(&t, &m)?;
    }

    #[test]
    fn neighbor_distances_match_fresh_spf(events in prop::collection::vec(arb_event(), 1..60)) {
        let n = NODES as usize;
        let mut r = MpdaRouter::new(NodeId(0), n);
        // Neighbors that sent an LSU since their link came up.
        let mut heard: BTreeSet<NodeId> = BTreeSet::new();
        for ev in events {
            let event = match ev {
                Ev::Up(k, cost) => RouterEvent::LinkUp { to: k, cost },
                Ev::Down(k) => {
                    heard.remove(&k);
                    RouterEvent::LinkDown { to: k }
                }
                Ev::Cost(k, cost) => RouterEvent::LinkCost { to: k, cost },
                Ev::Lsu(k, ack, entries) => {
                    if r.link_cost(k).is_some() {
                        heard.insert(k);
                    }
                    RouterEvent::Lsu { from: k, msg: LsuMessage { from: k, ack, entries } }
                }
            };
            r.handle(event);
            for k in r.neighbors() {
                let topo = r.neighbor_topology(k).cloned().unwrap_or_default();
                let want = if heard.contains(&k) {
                    dijkstra(n, &topo, k).dist
                } else {
                    // Up, but no LSU yet: T^i_k empty, D^i_·k unknown.
                    prop_assert!(topo.is_empty());
                    vec![INFINITE_COST; n]
                };
                for (j, w) in want.iter().enumerate() {
                    let got = r.neighbor_distance(k, NodeId(j as u32));
                    prop_assert_eq!(got.to_bits(), w.to_bits(), "D^0_{}{}", j, k);
                }
            }
            prop_assert!(r.neighbor_topology(NodeId(5)).is_none());
            let s = r.stats();
            prop_assert!(s.spf_runs <= s.lsu_received + s.mtu_runs);
        }
    }
}
