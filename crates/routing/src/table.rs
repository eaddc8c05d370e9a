//! Topology tables.
//!
//! "The main topology table, `T^i`, stores the characteristics of each
//! link known to router `i`. Each entry in `T^i` is a triplet `[h, t, d]`
//! where `h` is the head, `t` is the tail and `d` is the cost of the link
//! `h → t`." (§4.1.1). Neighbor tables `T^i_k` have the same shape.
//!
//! Stored as one vector of triplets kept sorted by `(head, tail)`, with
//! no duplicate keys. Iteration order — and therefore every diff, merge,
//! and Dijkstra run — is deterministic, the links of one head are a
//! contiguous slice found by binary search, and a table of `m` links is
//! one allocation. Tables here hold a shortest-path tree or a merge of
//! a few of them (about `n` links), so the `O(m)` shift of an insert
//! into the middle costs less than a tree node would.

use mdr_net::{LinkCost, NodeId};
use mdr_proto::{LsuEntry, LsuMessage, LsuOp};
use std::cmp::Ordering;

/// A set of directed links with costs: the `[h, t, d]` triplet store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopoTable {
    /// `(head, tail, cost)`, strictly ascending by `(head, tail)`.
    links: Vec<(NodeId, NodeId, LinkCost)>,
}

impl TopoTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of `(head, tail)`: `Ok` if present, `Err` where it
    /// would be inserted.
    fn search(&self, head: NodeId, tail: NodeId) -> Result<usize, usize> {
        self.links.binary_search_by(|&(h, t, _)| (h, t).cmp(&(head, tail)))
    }

    /// The contiguous range of links whose head is `h`.
    fn head_range(&self, h: NodeId) -> std::ops::Range<usize> {
        let lo = self.links.partition_point(|l| l.0 < h);
        let hi = lo + self.links[lo..].partition_point(|l| l.0 == h);
        lo..hi
    }

    /// Insert or replace a link.
    pub fn insert(&mut self, head: NodeId, tail: NodeId, cost: LinkCost) {
        self.upsert(head, tail, cost);
    }

    /// Insert or replace a link; true if the table changed (a new link,
    /// or a cost with different bits).
    fn upsert(&mut self, head: NodeId, tail: NodeId, cost: LinkCost) -> bool {
        match self.search(head, tail) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.links[i].2, cost);
                old.to_bits() != cost.to_bits()
            }
            Err(i) => {
                self.links.insert(i, (head, tail, cost));
                true
            }
        }
    }

    /// Remove a link; returns its old cost if present.
    pub fn remove(&mut self, head: NodeId, tail: NodeId) -> Option<LinkCost> {
        self.search(head, tail).ok().map(|i| self.links.remove(i).2)
    }

    /// Cost of link `head → tail`, if known.
    pub fn cost(&self, head: NodeId, tail: NodeId) -> Option<LinkCost> {
        self.search(head, tail).ok().map(|i| self.links[i].2)
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if no links are stored.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Remove all links.
    pub fn clear(&mut self) {
        self.links.clear();
    }

    /// Iterate `(head, tail, cost)` in `(head, tail)` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, LinkCost)> + '_ {
        self.links.iter().copied()
    }

    /// Links whose head is `h`, in tail order.
    pub fn links_from(&self, h: NodeId) -> impl Iterator<Item = (NodeId, LinkCost)> + '_ {
        self.links[self.head_range(h)].iter().map(|&(_, t, c)| (t, c))
    }

    /// Drop every link whose head is `h`.
    pub fn remove_links_from(&mut self, h: NodeId) {
        let r = self.head_range(h);
        self.links.drain(r);
    }

    /// Append a link that sorts after every stored one — how MTU builds
    /// its merged table head by head without a search per link.
    pub(crate) fn push_sorted(&mut self, head: NodeId, tail: NodeId, cost: LinkCost) {
        debug_assert!(self.links.last().is_none_or(|&(h, t, _)| (h, t) < (head, tail)));
        self.links.push((head, tail, cost));
    }

    /// Apply one LSU entry (NTU step 1a: "add links, delete links or
    /// change links according to the specification of each entry").
    /// `Add` and `Change` are deliberately interchangeable on receive —
    /// robustness against reordered joins. Returns true if the table
    /// changed.
    pub fn apply_entry(&mut self, e: &LsuEntry) -> bool {
        match e.op {
            LsuOp::Add | LsuOp::Change => self.upsert(e.head, e.tail, e.cost),
            LsuOp::Delete => self.remove(e.head, e.tail).is_some(),
        }
    }

    /// Apply a whole LSU message. Returns true if the table changed —
    /// NTU skips the neighbor's Dijkstra when it did not.
    pub fn apply_message(&mut self, msg: &LsuMessage) -> bool {
        msg.entries.iter().fold(false, |changed, e| self.apply_entry(e) | changed)
    }

    /// Compute the LSU entries that transform `self` into `new` (MTU
    /// step 8 / PDA step 3: "Compose an LSU message consisting of
    /// topology differences using add, delete and change link entries").
    /// Adds and changes come first in `(head, tail)` order, then deletes
    /// in `(head, tail)` order.
    pub fn diff(&self, new: &TopoTable) -> Vec<LsuEntry> {
        let mut out = Vec::new();
        let mut deletes = Vec::new();
        let (mut a, mut b) = (self.links.iter().peekable(), new.links.iter().peekable());
        loop {
            let ord = match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(&&(oh, ot, _)), Some(&&(nh, nt, _))) => (oh, ot).cmp(&(nh, nt)),
            };
            match ord {
                Ordering::Less => {
                    if let Some(&(h, t, _)) = a.next() {
                        deletes.push(LsuEntry::delete(h, t));
                    }
                }
                Ordering::Greater => {
                    if let Some(&(h, t, c)) = b.next() {
                        out.push(LsuEntry::add(h, t, c));
                    }
                }
                Ordering::Equal => {
                    if let (Some(&(_, _, old)), Some(&(h, t, c))) = (a.next(), b.next()) {
                        if old != c {
                            out.push(LsuEntry::change(h, t, c));
                        }
                    }
                }
            }
        }
        out.append(&mut deletes);
        out
    }

    /// Entries describing the full table (sent to a neighbor whose link
    /// just came up — NTU step 2).
    pub fn full_entries(&self) -> Vec<LsuEntry> {
        self.iter().map(|(h, t, c)| LsuEntry::add(h, t, c)).collect()
    }

    /// All node ids appearing as a head or tail.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = Vec::new();
        for (h, t, _) in self.iter() {
            v.push(h);
            v.push(t);
        }
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Sorts once; a repeated `(head, tail)` keeps its last cost, as
/// repeated [`TopoTable::insert`]s would.
impl FromIterator<(NodeId, NodeId, LinkCost)> for TopoTable {
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId, LinkCost)>>(iter: I) -> Self {
        let mut links: Vec<_> = iter.into_iter().collect();
        // Stable: equal keys stay in arrival order, so the merge below
        // sees the last one last.
        links.sort_by_key(|&(h, t, _)| (h, t));
        links.dedup_by(|later, kept| {
            let dup = (later.0, later.1) == (kept.0, kept.1);
            if dup {
                kept.2 = later.2;
            }
            dup
        });
        TopoTable { links }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = TopoTable::new();
        t.insert(n(0), n(1), 2.0);
        assert_eq!(t.cost(n(0), n(1)), Some(2.0));
        assert_eq!(t.cost(n(1), n(0)), None);
        assert_eq!(t.remove(n(0), n(1)), Some(2.0));
        assert!(t.is_empty());
    }

    #[test]
    fn links_from_selects_head() {
        let t: TopoTable =
            [(n(0), n(1), 1.0), (n(0), n(2), 2.0), (n(1), n(2), 3.0)].into_iter().collect();
        let from0: Vec<_> = t.links_from(n(0)).collect();
        assert_eq!(from0, vec![(n(1), 1.0), (n(2), 2.0)]);
        let from2: Vec<_> = t.links_from(n(2)).collect();
        assert!(from2.is_empty());
    }

    #[test]
    fn remove_links_from_clears_only_that_head() {
        let mut t: TopoTable =
            [(n(0), n(1), 1.0), (n(0), n(2), 2.0), (n(1), n(2), 3.0)].into_iter().collect();
        t.remove_links_from(n(0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.cost(n(1), n(2)), Some(3.0));
    }

    #[test]
    fn diff_produces_minimal_entries() {
        let old: TopoTable =
            [(n(0), n(1), 1.0), (n(0), n(2), 2.0), (n(1), n(2), 3.0)].into_iter().collect();
        let new: TopoTable =
            [(n(0), n(1), 1.0), (n(0), n(2), 9.0), (n(2), n(3), 4.0)].into_iter().collect();
        let d = old.diff(&new);
        assert_eq!(d.len(), 3);
        assert!(d.contains(&LsuEntry::change(n(0), n(2), 9.0)));
        assert!(d.contains(&LsuEntry::add(n(2), n(3), 4.0)));
        assert!(d.contains(&LsuEntry::delete(n(1), n(2))));
    }

    #[test]
    fn diff_then_apply_reproduces_table() {
        let old: TopoTable = [(n(0), n(1), 1.0), (n(1), n(2), 3.0)].into_iter().collect();
        let new: TopoTable = [(n(0), n(1), 5.0), (n(2), n(0), 1.0)].into_iter().collect();
        let entries = old.diff(&new);
        let mut rebuilt = old.clone();
        for e in &entries {
            rebuilt.apply_entry(e);
        }
        assert_eq!(rebuilt, new);
    }

    #[test]
    fn empty_diff_for_identical_tables() {
        let t: TopoTable = [(n(0), n(1), 1.0)].into_iter().collect();
        assert!(t.diff(&t.clone()).is_empty());
    }

    #[test]
    fn full_entries_roundtrip() {
        let t: TopoTable = [(n(0), n(1), 1.0), (n(1), n(2), 3.0)].into_iter().collect();
        let mut fresh = TopoTable::new();
        for e in t.full_entries() {
            fresh.apply_entry(&e);
        }
        assert_eq!(fresh, t);
    }

    #[test]
    fn nodes_deduplicated_sorted() {
        let t: TopoTable = [(n(2), n(1), 1.0), (n(1), n(2), 3.0)].into_iter().collect();
        assert_eq!(t.nodes(), vec![n(1), n(2)]);
    }

    #[test]
    fn apply_add_acts_as_change_when_present() {
        let mut t: TopoTable = [(n(0), n(1), 1.0)].into_iter().collect();
        t.apply_entry(&LsuEntry::add(n(0), n(1), 7.0));
        assert_eq!(t.cost(n(0), n(1)), Some(7.0));
    }

    #[test]
    fn delete_missing_is_noop() {
        let mut t = TopoTable::new();
        t.apply_entry(&LsuEntry::delete(n(0), n(1)));
        assert!(t.is_empty());
    }
}
