//! Property tests for dynamic variable ordering and complement edges,
//! driving the manager through its public API only.
//!
//! The properties the ISSUE pins down:
//!
//! * an adjacent-level swap preserves function semantics (all minterms,
//!   ≤ 12 variables, checked before/after every swap),
//! * a full sift preserves function semantics the same way,
//! * complement-edge canonicality (regular then-edges, reduction, level
//!   order, subtable registration) holds for every stored node at every
//!   step — [`bdd::BddManager::check_invariants`] verifies all of it,
//! * `sift()` is deterministic: the same diagram and configuration always
//!   produce the same variable order and node count, across fresh managers
//!   and regardless of any threading around the manager (managers are
//!   `Send`, so cross-thread determinism reduces to run-to-run determinism,
//!   which is what the fresh-manager runs exercise — no time-based
//!   triggers, fixed tie-breaks).

use bdd::{force_order, BddManager, SiftConfig};
use boolfunc::{Cover, TruthTable};

/// A deterministic pseudo-random function family, varied enough to populate
/// all levels: seeded multiplicative hashing over the minterm index.
fn pseudo_random_table(num_vars: usize, seed: u64) -> TruthTable {
    TruthTable::from_fn(num_vars, move |m| {
        let mut z = m
            .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        z.wrapping_mul(0x94D0_49BB_1331_11EB) % 7 < 3
    })
}

fn assert_same_function(mgr: &BddManager, f: bdd::Bdd, tt: &TruthTable, what: &str) {
    for m in 0..(1u64 << tt.num_vars()) {
        assert_eq!(mgr.eval(f, m), tt.get(m), "{what}: minterm {m} changed");
    }
}

#[test]
fn every_adjacent_swap_preserves_semantics_and_canonicality() {
    for seed in 0..4u64 {
        let num_vars = 8;
        let tt = pseudo_random_table(num_vars, seed);
        let mut mgr = BddManager::new(num_vars);
        let f = mgr.from_truth_table(&tt);
        // March a full bubble pass down and back up, checking after every
        // single exchange.
        for level in 0..num_vars - 1 {
            mgr.swap_adjacent_levels(level);
            mgr.check_invariants();
            assert_same_function(&mgr, f, &tt, &format!("seed {seed}, swap down at {level}"));
        }
        for level in (0..num_vars - 1).rev() {
            mgr.swap_adjacent_levels(level);
            mgr.check_invariants();
            assert_same_function(&mgr, f, &tt, &format!("seed {seed}, swap up at {level}"));
        }
        // A full down-up pass over one level pair is the identity on the
        // order.
        let order = mgr.var_order();
        assert_eq!(order, (0..num_vars).collect::<Vec<_>>());
    }
}

#[test]
fn full_sift_preserves_semantics_up_to_twelve_vars() {
    for &num_vars in &[6usize, 9, 12] {
        let tt = pseudo_random_table(num_vars, num_vars as u64);
        let mut mgr = BddManager::new(num_vars);
        let f = mgr.from_truth_table(&tt);
        let before = mgr.num_nodes();
        mgr.sift(&[f]);
        mgr.check_invariants();
        assert!(mgr.num_nodes() <= before, "sifting must never grow the final diagram");
        assert_same_function(&mgr, f, &tt, &format!("{num_vars}-var sift"));
    }
}

#[test]
fn sift_handles_multiple_roots() {
    let num_vars = 10;
    let tt_a = pseudo_random_table(num_vars, 11);
    let tt_b = pseudo_random_table(num_vars, 22);
    let mut mgr = BddManager::new(num_vars);
    let a = mgr.from_truth_table(&tt_a);
    let b = mgr.from_truth_table(&tt_b);
    let c = mgr.xor(a, b);
    mgr.sift(&[a, b, c]);
    mgr.check_invariants();
    assert_same_function(&mgr, a, &tt_a, "root a");
    assert_same_function(&mgr, b, &tt_b, "root b");
    let tt_c = TruthTable::from_fn(num_vars, |m| tt_a.get(m) ^ tt_b.get(m));
    assert_same_function(&mgr, c, &tt_c, "root c");
}

#[test]
fn sift_is_deterministic_across_fresh_managers() {
    let num_vars = 11;
    let tt = pseudo_random_table(num_vars, 99);
    let mut reference: Option<(Vec<usize>, usize)> = None;
    for _run in 0..3 {
        let mut mgr = BddManager::new(num_vars);
        let f = mgr.from_truth_table(&tt);
        mgr.sift(&[f]);
        let outcome = (mgr.var_order(), mgr.num_nodes());
        match &reference {
            None => reference = Some(outcome),
            Some(expected) => {
                assert_eq!(&outcome, expected, "sift outcome differs between runs")
            }
        }
    }
}

#[test]
fn auto_sift_trigger_is_deterministic_and_semantics_preserving() {
    let num_vars = 12;
    let tt = pseudo_random_table(num_vars, 5);
    let mut reference: Option<(Vec<usize>, usize)> = None;
    for _run in 0..2 {
        let mut mgr = BddManager::new(num_vars);
        mgr.set_sift_config(SiftConfig { auto_threshold: 64 });
        let f = mgr.from_truth_table(&tt);
        // The trigger only fires where the caller can name its roots.
        let fired = mgr.maybe_sift(&[f]);
        assert!(fired, "a 12-var random function exceeds the 64-node trigger");
        mgr.check_invariants();
        assert_same_function(&mgr, f, &tt, "auto-sifted function");
        let outcome = (mgr.var_order(), mgr.num_nodes());
        match &reference {
            None => reference = Some(outcome),
            Some(expected) => assert_eq!(&outcome, expected, "auto sift must be deterministic"),
        }
    }
}

#[test]
fn clear_restores_the_identity_order_for_batch_determinism() {
    let mut mgr = BddManager::new(9);
    let tt = pseudo_random_table(9, 3);
    let f = mgr.from_truth_table(&tt);
    mgr.sift(&[f]);
    let sifted = mgr.var_order();
    // The sifted order is (almost certainly) not the identity for a random
    // function; what matters is that clear() always goes back to identity so
    // a reused worker manager starts every job from the same state.
    mgr.clear();
    assert_eq!(mgr.var_order(), (0..9).collect::<Vec<_>>());
    let f2 = mgr.from_truth_table(&tt);
    assert_same_function(&mgr, f2, &tt, "rebuild after clear");
    let _ = sifted;
}

#[test]
fn force_seeding_composes_with_sifting() {
    // Three interleaved pairs: FORCE should bring each pair together, and
    // building under the seeded order should start smaller than the identity
    // build; sifting afterwards must stay correct.
    let num_vars = 8;
    let cover =
        Cover::from_strs(num_vars, &["1---1---", "-1---1--", "--1---1-", "---1---1"]).unwrap();
    let tt = cover.to_truth_table();

    let mut identity_mgr = BddManager::new(num_vars);
    let f_id = identity_mgr.cover(&cover);
    let identity_nodes = identity_mgr.node_count(f_id);

    let order = force_order(num_vars, &[&cover]);
    let mut seeded_mgr = BddManager::new(num_vars);
    seeded_mgr.set_order(&order);
    let f_seeded = seeded_mgr.cover(&cover);
    let seeded_nodes = seeded_mgr.node_count(f_seeded);

    assert!(
        seeded_nodes < identity_nodes,
        "FORCE seeding must shrink the interleaved-pairs diagram \
         (identity {identity_nodes}, seeded {seeded_nodes})"
    );
    assert_same_function(&seeded_mgr, f_seeded, &tt, "seeded build");

    seeded_mgr.sift(&[f_seeded]);
    seeded_mgr.check_invariants();
    assert_same_function(&seeded_mgr, f_seeded, &tt, "seeded build after sift");
}

#[test]
fn complement_edges_share_nodes_between_function_and_negation() {
    let mut mgr = BddManager::new(10);
    let tt = pseudo_random_table(10, 77);
    let f = mgr.from_truth_table(&tt);
    let size = mgr.num_nodes();
    let nf = mgr.not(f);
    assert_eq!(mgr.num_nodes(), size, "negation must not allocate");
    assert_eq!(mgr.node_count(f), mgr.node_count(nf), "both polarities share the diagram");
    assert_eq!(mgr.not(nf), f, "negation is an involution");
    let ntt = TruthTable::from_fn(10, |m| !tt.get(m));
    assert_same_function(&mgr, nf, &ntt, "negated function");
}

#[test]
fn operations_stay_correct_after_sifting_rebuilt_operands() {
    // Sift in the middle of a computation: results produced afterwards from
    // surviving handles must still be correct.
    let num_vars = 10;
    let tt_a = pseudo_random_table(num_vars, 1);
    let tt_b = pseudo_random_table(num_vars, 2);
    let mut mgr = BddManager::new(num_vars);
    let a = mgr.from_truth_table(&tt_a);
    let b = mgr.from_truth_table(&tt_b);
    mgr.sift(&[a, b]);
    let and = mgr.and(a, b);
    let or = mgr.or(a, b);
    mgr.check_invariants();
    let tt_and = TruthTable::from_fn(num_vars, |m| tt_a.get(m) && tt_b.get(m));
    let tt_or = TruthTable::from_fn(num_vars, |m| tt_a.get(m) || tt_b.get(m));
    assert_same_function(&mgr, and, &tt_and, "and after sift");
    assert_same_function(&mgr, or, &tt_or, "or after sift");
    assert_eq!(mgr.sat_count(and), tt_and.count_ones());
}
