//! Criterion bench: the espresso-style two-level minimizer.
//!
//! `espresso_dense` is the production path (`espresso_isf`, minimizing on
//! the function's truth tables); `espresso_cube_list` is its cube-list
//! oracle (`espresso_cover` on the minterm covers). Both return the same
//! cover.

use bidecomp_bench::{criterion_group, criterion_main, Criterion};

use boolfunc::{Isf, TruthTable};
use sop::{complement, espresso_cover, espresso_isf, is_tautology, EspressoOptions};

fn bench_sop(c: &mut Criterion) {
    let mut group = c.benchmark_group("sop");
    group.sample_size(10);

    for &num_vars in &[8usize, 10, 12] {
        let hash = |m: u64| m.wrapping_mul(2654435761) >> 7;
        let on = TruthTable::from_fn(num_vars, |m| hash(m) % 3 == 0);
        let dc = TruthTable::from_fn(num_vars, |m| hash(m) % 7 == 1).difference(&on);
        let f = Isf::new(on, dc).expect("dc is disjoint from on by construction");
        let options = EspressoOptions::default();
        group.bench_function(format!("espresso_dense/{num_vars}vars"), |b| {
            b.iter(|| std::hint::black_box(espresso_isf(&f, options)).literal_count());
        });
        group.bench_function(format!("espresso_cube_list/{num_vars}vars"), |b| {
            b.iter(|| {
                let cover = espresso_cover(&f.on_cover(), &f.dc_cover(), options);
                std::hint::black_box(cover).literal_count()
            });
        });
    }

    for &num_vars in &[6usize, 8] {
        let on = TruthTable::from_fn(num_vars, |m| m.wrapping_mul(2654435761) % 3 == 0);
        let cover = on.to_minterm_cover();
        group.bench_function(format!("complement/{num_vars}vars"), |b| {
            b.iter(|| std::hint::black_box(complement(&cover)).num_cubes());
        });
        group.bench_function(format!("tautology/{num_vars}vars"), |b| {
            let taut = cover.union(&complement(&cover));
            b.iter(|| std::hint::black_box(is_tautology(&taut)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sop);
criterion_main!(benches);
