//! Shared link-state machinery: the NTU and MTU procedures (Figs. 2–3)
//! used by both PDA and MPDA.

use crate::spf::dijkstra;
use crate::table::TopoTable;
use mdr_net::{LinkCost, NodeId, INFINITE_COST};
use mdr_proto::{LsuEntry, LsuMessage};

/// One operational neighbor `k`: its row of the link table and its
/// neighbor tables.
#[derive(Debug, Clone)]
pub(crate) struct Neighbor {
    /// Neighbor address.
    pub k: NodeId,
    /// `l^i_k`: cost of the adjacent link to `k`.
    pub cost: LinkCost,
    /// `T^i_k`: the link-state communicated by `k` (a time-delayed copy
    /// of `T^k`).
    topo: TopoTable,
    /// `D^i_jk` for every `j`: distance from `k` per `T^i_k` (NTU step
    /// 1c); all [`INFINITE_COST`] until the first SPF.
    dist: Vec<LinkCost>,
    /// True while `dist` is the SPF of the current `topo`. False from
    /// link-up until the first LSU, and after an LSU changes `topo`.
    fresh: bool,
}

impl Neighbor {
    /// `T^i_k`.
    pub fn topo(&self) -> &TopoTable {
        &self.topo
    }

    /// `D^i_·k`, indexed by destination.
    pub fn dist(&self) -> &[LinkCost] {
        &self.dist
    }
}

/// Per-router link-state core: the five tables of §4.1.1 minus the
/// routing table (successor sets live in the PDA/MPDA wrappers, which
/// differ in how they derive them).
#[derive(Debug, Clone)]
pub(crate) struct LsCore {
    /// This router's address.
    pub id: NodeId,
    /// Network size (routers are addressed `0..n`); tables are flat
    /// vectors indexed by destination.
    pub n: usize,
    /// The link table and neighbor tables, one slot per operational
    /// neighbor, ascending by address. A link that is down has no slot:
    /// NTU step 4 clears `T^i_k` with it.
    pub neighbors: Vec<Neighbor>,
    /// Main topology table `T^i`: this router's shortest-path tree.
    pub main_topo: TopoTable,
    /// `D^i_j`: distance from `i` to each `j` per `T^i` (MTU step 7).
    pub dist: Vec<LinkCost>,
    /// MTU invocations (complexity accounting).
    pub mtu_runs: u64,
    /// Dijkstra runs, NTU and MTU together (complexity accounting).
    pub spf_runs: u64,
}

impl LsCore {
    pub fn new(id: NodeId, n: usize) -> Self {
        let mut dist = vec![INFINITE_COST; n];
        if id.index() < n {
            dist[id.index()] = 0.0;
        }
        LsCore {
            id,
            n,
            neighbors: Vec::new(),
            main_topo: TopoTable::new(),
            dist,
            mtu_runs: 0,
            spf_runs: 0,
        }
    }

    /// Slot of `k` (`Ok`) or where it would go (`Err`).
    fn slot(&self, k: NodeId) -> Result<usize, usize> {
        self.neighbors.binary_search_by_key(&k, |nb| nb.k)
    }

    /// The slot of operational neighbor `k`.
    pub fn neighbor(&self, k: NodeId) -> Option<&Neighbor> {
        self.slot(k).ok().map(|i| &self.neighbors[i])
    }

    /// True if `k` is an operational neighbor.
    pub fn is_neighbor(&self, k: NodeId) -> bool {
        self.slot(k).is_ok()
    }

    /// `l^i_k` (None if the link is down).
    pub fn link_cost(&self, k: NodeId) -> Option<LinkCost> {
        self.neighbor(k).map(|nb| nb.cost)
    }

    /// Operational neighbors, ascending.
    pub fn neighbor_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors.iter().map(|nb| nb.k)
    }

    /// NTU step 1: apply a received LSU to `T^i_k` and refresh `D^i_jk`.
    /// The SPF is skipped when `T^i_k` is unchanged since the last one
    /// (an ACK-only LSU, or entries `T^i_k` already held). An LSU from
    /// a non-neighbor is ignored; callers drop it before this point.
    pub fn process_lsu(&mut self, from: NodeId, msg: &LsuMessage) {
        let Ok(i) = self.slot(from) else { return };
        let nb = &mut self.neighbors[i];
        if nb.topo.apply_message(msg) {
            nb.fresh = false;
        }
        if !nb.fresh {
            nb.dist = dijkstra(self.n, &nb.topo, from).dist;
            nb.fresh = true;
            self.spf_runs += 1;
        }
    }

    /// NTU step 2: adjacent link to `k` came up with cost `cost`. A link
    /// that is already up keeps its neighbor tables.
    pub fn link_up(&mut self, k: NodeId, cost: LinkCost) {
        match self.slot(k) {
            Ok(i) => self.neighbors[i].cost = cost,
            Err(i) => self.neighbors.insert(
                i,
                Neighbor {
                    k,
                    cost,
                    topo: TopoTable::new(),
                    dist: vec![INFINITE_COST; self.n],
                    fresh: false,
                },
            ),
        }
    }

    /// NTU step 3: adjacent link cost changed.
    pub fn link_cost_change(&mut self, k: NodeId, cost: LinkCost) {
        if let Ok(i) = self.slot(k) {
            self.neighbors[i].cost = cost;
        }
    }

    /// NTU step 4: adjacent link failed — "Update `l^i_k` and clear the
    /// table `T^i_k`".
    pub fn link_down(&mut self, k: NodeId) {
        if let Ok(i) = self.slot(k) {
            self.neighbors.remove(i);
        }
    }

    /// `D^i_jk` — distance from neighbor `k` to destination `j` as
    /// reported by `k` ([`INFINITE_COST`] when unknown).
    #[inline]
    pub fn neighbor_distance(&self, k: NodeId, j: NodeId) -> LinkCost {
        self.neighbor(k).map(|nb| nb.dist[j.index()]).unwrap_or(INFINITE_COST)
    }

    /// MTU (Fig. 3): merge neighbor topologies and adjacent links into a
    /// new shortest-path tree; update `T^i` and `D^i_j`. Returns the LSU
    /// entries describing the difference from the previous `T^i` (step
    /// 8) — empty when nothing changed — and the previous `D^i_j`.
    pub fn mtu(&mut self) -> (Vec<LsuEntry>, Vec<LinkCost>) {
        self.mtu_runs += 1;
        // Steps 2-5, head by head in address order, so the merged table
        // is built already sorted.
        let mut merged = TopoTable::new();
        for j in 0..self.n as u32 {
            let j = NodeId(j);
            if j == self.id {
                // Step 5: adjacent links override anything neighbors
                // said about links headed at this router.
                for nb in &self.neighbors {
                    merged.push_sorted(j, nb.k, nb.cost);
                }
                continue;
            }
            // Steps 2-3: the preferred neighbor p minimizes
            // D^i_jp + l^i_p, ties to the lower address.
            let mut best: Option<(LinkCost, &Neighbor)> = None;
            for nb in &self.neighbors {
                let d = nb.dist[j.index()];
                if d >= INFINITE_COST {
                    continue;
                }
                let total = d + nb.cost;
                match best {
                    Some((b, _)) if total >= b => {}
                    _ => best = Some((total, nb)),
                }
            }
            // Step 4: copy links with head j from the preferred
            // neighbor's topology.
            if let Some((_, p)) = best {
                for (tail, c) in p.topo.links_from(j) {
                    merged.push_sorted(j, tail, c);
                }
            }
        }
        // Step 6: Dijkstra, keep only tree links. Step 7: new distances.
        let spf = dijkstra(self.n, &merged, self.id);
        self.spf_runs += 1;
        let tree = spf.tree_links(&merged);
        let old_dist = std::mem::replace(&mut self.dist, spf.dist);
        let old = std::mem::replace(&mut self.main_topo, tree);
        // Step 8: differences to report.
        (old.diff(&self.main_topo), old_dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn mtu_with_no_neighbors_is_empty() {
        let mut c = LsCore::new(n(0), 3);
        let diff = c.mtu().0;
        assert!(diff.is_empty());
        assert_eq!(c.dist[0], 0.0);
        assert_eq!(c.dist[1], INFINITE_COST);
    }

    #[test]
    fn mtu_includes_adjacent_links() {
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 2.0);
        let diff = c.mtu().0;
        assert_eq!(diff.len(), 1);
        assert_eq!(c.main_topo.cost(n(0), n(1)), Some(2.0));
        assert_eq!(c.dist[1], 2.0);
    }

    #[test]
    fn mtu_merges_neighbor_tree() {
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 1.0);
        // Neighbor 1 reports its tree: 1 -> 2 cost 1.
        let msg = LsuMessage::update(n(1), vec![LsuEntry::add(n(1), n(2), 1.0)]);
        c.process_lsu(n(1), &msg);
        assert_eq!(c.neighbor_distance(n(1), n(2)), 1.0);
        c.mtu();
        assert_eq!(c.dist[2], 2.0);
        assert_eq!(c.main_topo.cost(n(1), n(2)), Some(1.0));
    }

    #[test]
    fn conflict_resolved_by_preferred_neighbor() {
        // Node 3's outgoing links are reported differently by neighbors
        // 1 and 2; the router must believe the neighbor closest to 3.
        let mut c = LsCore::new(n(0), 5);
        c.link_up(n(1), 1.0);
        c.link_up(n(2), 1.0);
        // Via neighbor 1: 1->3 cost 1 (so 3 is at distance 2), 3->4 cost 5.
        c.process_lsu(
            n(1),
            &LsuMessage::update(
                n(1),
                vec![LsuEntry::add(n(1), n(3), 1.0), LsuEntry::add(n(3), n(4), 5.0)],
            ),
        );
        // Via neighbor 2: 2->3 cost 9 (3 at distance 10), 3->4 cost 1.
        c.process_lsu(
            n(2),
            &LsuMessage::update(
                n(2),
                vec![LsuEntry::add(n(2), n(3), 9.0), LsuEntry::add(n(3), n(4), 1.0)],
            ),
        );
        c.mtu();
        // Preferred neighbor for head 3 is 1 (distance 1+1=2 < 1+9=10),
        // so link 3->4 must carry neighbor 1's cost 5.
        assert_eq!(c.dist[3], 2.0);
        assert_eq!(c.dist[4], 7.0);
    }

    #[test]
    fn own_links_override_neighbor_claims() {
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 1.0);
        // Neighbor claims our adjacent link has cost 100.
        c.process_lsu(n(1), &LsuMessage::update(n(1), vec![LsuEntry::add(n(0), n(1), 100.0)]));
        c.mtu();
        assert_eq!(c.main_topo.cost(n(0), n(1)), Some(1.0));
    }

    #[test]
    fn link_down_clears_neighbor_state() {
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 1.0);
        c.process_lsu(n(1), &LsuMessage::update(n(1), vec![LsuEntry::add(n(1), n(2), 1.0)]));
        c.mtu();
        assert_eq!(c.dist[2], 2.0);
        c.link_down(n(1));
        let diff = c.mtu().0;
        assert!(!diff.is_empty());
        assert_eq!(c.dist[1], INFINITE_COST);
        assert_eq!(c.dist[2], INFINITE_COST);
        assert!(!c.is_neighbor(n(1)));
    }

    #[test]
    fn cost_change_propagates_to_distances() {
        let mut c = LsCore::new(n(0), 2);
        c.link_up(n(1), 1.0);
        c.mtu();
        assert_eq!(c.dist[1], 1.0);
        c.link_cost_change(n(1), 4.0);
        let diff = c.mtu().0;
        assert_eq!(c.dist[1], 4.0);
        assert_eq!(diff.len(), 1);
    }

    #[test]
    fn mtu_idempotent_when_nothing_changes() {
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 1.0);
        assert!(!c.mtu().0.is_empty());
        assert!(c.mtu().0.is_empty());
        assert!(c.mtu().0.is_empty());
    }

    #[test]
    fn non_tree_adjacent_link_pruned_from_report() {
        // Triangle where the direct link 0->2 is worse than 0->1->2: the
        // main topology (a shortest-path tree) must omit 0->2.
        let mut c = LsCore::new(n(0), 3);
        c.link_up(n(1), 1.0);
        c.link_up(n(2), 10.0);
        c.process_lsu(n(1), &LsuMessage::update(n(1), vec![LsuEntry::add(n(1), n(2), 1.0)]));
        c.mtu();
        assert_eq!(c.dist[2], 2.0);
        assert_eq!(c.main_topo.cost(n(0), n(2)), None);
        assert_eq!(c.main_topo.cost(n(0), n(1)), Some(1.0));
    }
}
