//! Routing variables `φ = {φ_ijk}` for the analytic model.

use mdr_net::{LinkDelayModel, Mm1, NodeId, Topology};
use mdr_routing::{dijkstra, TopoTable};

/// The complete routing-parameter set: for each router `i` and
/// destination `j`, the fraction of `j`-bound traffic at `i` forwarded
/// to each neighbor `k`. Entries absent from the map are zero
/// (Property 1 rule 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingVars {
    n: usize,
    /// `phi[i][j]` = sorted `(k, fraction)` pairs.
    phi: Vec<Vec<Vec<(NodeId, f64)>>>,
}

impl RoutingVars {
    /// All-zero variables for an `n`-router network.
    pub fn new(n: usize) -> Self {
        RoutingVars { n, phi: vec![vec![Vec::new(); n]; n] }
    }

    /// Number of routers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Replace the parameters at router `i` for destination `j`.
    /// Fractions must be non-negative; they are normalized to sum to 1
    /// (empty input clears the entry).
    pub fn set(&mut self, i: NodeId, j: NodeId, mut pairs: Vec<(NodeId, f64)>) {
        pairs.retain(|&(_, f)| f > 0.0);
        let sum: f64 = pairs.iter().map(|&(_, f)| f).sum();
        if sum > 0.0 {
            for p in &mut pairs {
                p.1 /= sum;
            }
            pairs.sort_by_key(|&(k, _)| k);
        } else {
            pairs.clear();
        }
        self.phi[i.index()][j.index()] = pairs;
    }

    /// The `(k, fraction)` pairs at `i` toward `j`.
    pub fn get(&self, i: NodeId, j: NodeId) -> &[(NodeId, f64)] {
        &self.phi[i.index()][j.index()]
    }

    /// `φ_ijk`.
    pub fn fraction(&self, i: NodeId, j: NodeId, k: NodeId) -> f64 {
        self.get(i, j).iter().find(|&&(m, _)| m == k).map(|&(_, f)| f).unwrap_or(0.0)
    }

    /// Successors of `i` toward `j` (neighbors with positive fraction).
    pub fn successors(&self, i: NodeId, j: NodeId) -> Vec<NodeId> {
        self.get(i, j).iter().map(|&(k, _)| k).collect()
    }
}

/// Single-shortest-path routing variables using idle marginal delays
/// `D'_ik(0)` as link costs: all traffic for each destination on the
/// one shortest path. This is both OPT's starting point and the analytic
/// form of the SP baseline.
pub fn shortest_path_vars(topo: &Topology, models: &[Mm1]) -> RoutingVars {
    let n = topo.node_count();
    let table: TopoTable = topo
        .links()
        .iter()
        .enumerate()
        .map(|(id, l)| (l.from, l.to, models[id].marginal_delay(0.0)))
        .collect();
    let mut vars = RoutingVars::new(n);
    for root in topo.nodes() {
        let spf = dijkstra(n, &table, root);
        // parent[j] is the predecessor on root→j; next hop from root is
        // found by walking each destination's path. Simpler: for every
        // destination j, the first hop is the second node on the path.
        for j in topo.nodes() {
            if j == root || !spf.reachable(j) {
                continue;
            }
            if let Some(path) = spf.path_to(root, j) {
                vars.set(root, j, vec![(path[1], 1.0)]);
            }
        }
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdr_net::topo;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn set_normalizes() {
        let mut v = RoutingVars::new(3);
        v.set(n(0), n(2), vec![(n(1), 2.0), (n(2), 2.0)]);
        assert!((v.fraction(n(0), n(2), n(1)) - 0.5).abs() < 1e-12);
        assert_eq!(v.successors(n(0), n(2)), vec![n(1), n(2)]);
    }

    #[test]
    fn set_drops_zero_fractions() {
        let mut v = RoutingVars::new(3);
        v.set(n(0), n(2), vec![(n(1), 0.0), (n(2), 1.0)]);
        assert_eq!(v.successors(n(0), n(2)), vec![n(2)]);
    }

    #[test]
    fn shortest_path_vars_follow_idle_costs() {
        let t = topo::net1();
        let models: Vec<Mm1> =
            t.links().iter().map(|l| Mm1::unit_packets(l.capacity, l.prop_delay)).collect();
        let v = shortest_path_vars(&t, &models);
        // Every (i, j) pair has exactly one successor, a neighbor of i.
        for i in t.nodes() {
            for j in t.nodes() {
                if i == j {
                    continue;
                }
                let s = v.successors(i, j);
                assert_eq!(s.len(), 1, "({i},{j})");
                assert!(t.neighbors(i).any(|x| x == s[0]));
            }
        }
        // Direct neighbors route directly (all links have equal cost in
        // NET1, so the 1-hop path is unique-best).
        assert_eq!(v.successors(n(0), n(1)), vec![n(1)]);
    }
}
