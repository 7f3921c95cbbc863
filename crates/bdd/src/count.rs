//! Model counting.
//!
//! With complement edges, counting works on the *regular* node function and
//! applies the complement identity `|¬f| = 2^span − |f|` per edge; with a
//! dynamic variable order, level gaps are measured through the manager's
//! order maps instead of raw variable labels.

use std::collections::HashMap;

use crate::manager::{Bdd, BddManager};

impl BddManager {
    /// Number of minterms (satisfying assignments over all `n` variables of
    /// the manager) of `f`.
    ///
    /// This is the quantity the experiments use to measure the *error rate*
    /// of an approximation: `|f ⊕ g| / 2^n`.
    ///
    /// The recursion memo is owned by the manager and reused across calls
    /// (cleared, not reallocated), which is why counting takes `&mut self`.
    pub fn sat_count(&mut self, f: Bdd) -> u64 {
        let mut memo = std::mem::take(&mut self.count_memo);
        memo.clear();
        let total = self.count_edge(f, 0, &mut memo);
        self.count_memo = memo;
        u64::try_from(total).unwrap_or(u64::MAX)
    }

    /// Minterms of `f` over the variables at levels `[level, n)`. The memo is
    /// keyed by node index and holds the count of the *regular* function from
    /// the node's own level down, so both polarities and all incoming level
    /// gaps share one entry.
    fn count_edge(&self, f: Bdd, level: usize, memo: &mut HashMap<u32, u128>) -> u128 {
        let span = self.num_vars() - level;
        if self.is_one(f) {
            return 1u128 << span;
        }
        if self.is_zero(f) {
            return 0;
        }
        let node_level = self.top_level(f);
        let below = self.count_node(f, memo);
        let regular = below << (node_level - level);
        if f.is_complemented() {
            (1u128 << span) - regular
        } else {
            regular
        }
    }

    /// Count of the regular function of `f`'s node, from its own level down.
    fn count_node(&self, f: Bdd, memo: &mut HashMap<u32, u128>) -> u128 {
        let idx = f.index() as u32;
        if let Some(&c) = memo.get(&idx) {
            return c;
        }
        let n = self.node(f);
        let level = self.top_level(f);
        let c = self.count_edge(n.low, level + 1, memo) + self.count_edge(n.high, level + 1, memo);
        memo.insert(idx, c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_simple_functions() {
        let mut mgr = BddManager::new(4);
        assert_eq!(mgr.sat_count(mgr.zero()), 0);
        assert_eq!(mgr.sat_count(mgr.one()), 16);
        let x0 = mgr.variable(0);
        assert_eq!(mgr.sat_count(x0), 8);
        let nx0 = mgr.not(x0);
        assert_eq!(mgr.sat_count(nx0), 8, "complemented edges must count correctly");
        let x3 = mgr.variable(3);
        let f = mgr.and(x0, x3);
        assert_eq!(mgr.sat_count(f), 4);
        let g = mgr.or(x0, x3);
        assert_eq!(mgr.sat_count(g), 12);
        let nf = mgr.not(f);
        assert_eq!(mgr.sat_count(nf), 12);
    }

    #[test]
    fn count_matches_enumeration_on_random_functions() {
        let mut mgr = BddManager::new(6);
        let tt = boolfunc::TruthTable::from_fn(6, |m| (m.wrapping_mul(2654435761)) % 5 < 2);
        let f = mgr.from_truth_table(&tt);
        assert_eq!(mgr.sat_count(f), tt.count_ones());
    }

    #[test]
    fn count_survives_reordering() {
        let mut mgr = BddManager::new(8);
        let tt = boolfunc::TruthTable::from_fn(8, |m| (m.wrapping_mul(0x9E37)) % 13 < 5);
        let f = mgr.from_truth_table(&tt);
        let expected = tt.count_ones();
        assert_eq!(mgr.sat_count(f), expected);
        mgr.sift(&[f]);
        assert_eq!(mgr.sat_count(f), expected, "counting must follow the sifted order");
    }
}
