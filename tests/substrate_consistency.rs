//! Integration tests pinning the substrates against each other: the espresso
//! minimizer, the BDD package, the 2-SPP synthesizer and the area model must
//! all agree on what function they are realizing.

use bidecomposition::prelude::*;
use boolfunc::TruthTable;

fn pseudo_random_isf(num_vars: usize, seed: u64) -> Isf {
    let on = TruthTable::from_fn(num_vars, |m| {
        m.wrapping_mul(0x9E37_79B9).wrapping_add(seed.wrapping_mul(0x85EB_CA6B)) % 7 < 3
    });
    let dc =
        TruthTable::from_fn(num_vars, |m| m.wrapping_mul(0xC2B2_AE35).wrapping_add(seed) % 11 == 0)
            .difference(&on);
    Isf::new(on, dc).expect("disjoint by construction")
}

#[test]
fn espresso_bdd_and_spp_realize_the_same_function() {
    for seed in 0..10u64 {
        let f = pseudo_random_isf(6, seed);

        // espresso cover.
        let sop = sop::espresso(&f);
        assert!(sop::espresso::verify_cover(&f, &sop), "seed {seed}: espresso cover invalid");

        // The same cover as a BDD lies inside the interval [on, on ∪ dc],
        // built with the operations the symbolic sweep runs.
        let mut mgr = BddManager::new(6);
        let cover = mgr.cover(&sop);
        let lower = mgr.from_truth_table(f.on());
        let upper = mgr.from_truth_table(&f.max_completion());
        assert!(mgr.is_subset(lower, cover), "seed {seed}: BDD cover misses on-set");
        assert!(mgr.is_subset(cover, upper), "seed {seed}: BDD cover hits off-set");
        let cover_tt = mgr.to_truth_table(cover).expect("6 variables fit a table");
        assert_eq!(cover_tt, sop.to_truth_table(), "seed {seed}: BDD and cover disagree");

        // 2-SPP form.
        let form = SppSynthesizer::new().synthesize(&f);
        assert!(form.matches(&f), "seed {seed}: 2-SPP form invalid");
        assert!(
            form.literal_count() <= sop.literal_count(),
            "seed {seed}: 2-SPP must never be worse than its SOP seed"
        );

        // The area model maps both; the cheaper literal count cannot cost more
        // than twice the other realization (sanity band, not a tight bound).
        let model = AreaModel::mcnc();
        let area_sop = model.cover_area(&sop);
        let area_spp = model.spp_area(&form);
        assert!(area_sop > 0.0 || sop.is_empty());
        assert!(area_spp.is_finite());
    }
}

#[test]
fn exact_minimizer_is_a_lower_bound_for_the_heuristic() {
    for seed in 0..10u64 {
        let f = pseudo_random_isf(4, seed);
        let exact = sop::exact_minimize(&f);
        let heuristic = sop::espresso(&f);
        assert!(
            exact.num_cubes() <= heuristic.num_cubes(),
            "seed {seed}: exact found more cubes than the heuristic"
        );
    }
}

#[test]
fn benchmark_instances_survive_pla_serialization() {
    let inst = benchmarks::arithmetic::adder("adr3", 3);
    let pla = inst.to_pla();
    assert_eq!(pla.num_inputs(), 6);
    assert_eq!(pla.num_outputs(), 4);
    let text = pla.to_string();
    let parsed: boolfunc::Pla = text.parse().expect("round trip");
    for (i, isf) in parsed.output_isfs().expect("dense").iter().enumerate() {
        assert_eq!(isf.on(), inst.outputs()[i].on(), "output {i} changed in the round trip");
    }
}

#[test]
fn facade_prelude_exposes_the_whole_flow() {
    // Compile-time check that the prelude is sufficient for the quickstart.
    let f = Isf::from_cover_str(3, &["11-"], &[]).expect("valid cover");
    let g = Cover::from_strs(3, &["1--"]).expect("valid cover").to_truth_table();
    let h = full_quotient(&f, &g, BinaryOp::And).expect("valid divisor");
    assert!(verify_decomposition(&f, &g, &h, BinaryOp::And));
    let _ = SppSynthesizer::new().synthesize(&h);
    let _ = AreaModel::mcnc();
    let _ = GateLibrary::mcnc();
    let _ = Suite::smoke();
    let mut mgr = BddManager::new(3);
    let _ = mgr.variable(1);
}

/// The dense espresso synthesis runs on returns the cube-list oracle's
/// cover, cube for cube, on every output of the paper's benchmark suite.
#[test]
fn dense_espresso_matches_the_cube_list_oracle_on_the_suite() {
    use sop::espresso::verify_cover;
    use sop::{espresso_cover, espresso_isf, EspressoOptions};

    let shapes =
        [EspressoOptions::default(), EspressoOptions { max_iterations: 1, use_reduce: false }];
    for inst in benchmarks::Suite::all().instances() {
        for (output, f) in inst.outputs().iter().enumerate() {
            let (on, dc) = (f.on_cover(), f.dc_cover());
            for options in shapes {
                let dense = espresso_isf(f, options);
                let what = format!("{}[{output}], {options:?}", inst.name());
                assert_eq!(dense, espresso_cover(&on, &dc, options), "{what}");
                assert!(verify_cover(f, &dense), "{what}: cover does not realize f");
            }
        }
    }
}
