//! Criterion bench: core BDD operations (the CUDD stand-in).

use bidecomp_bench::{criterion_group, criterion_main, Criterion};

use bdd::BddManager;
use boolfunc::Cover;

fn bench_bdd(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd");
    group.sample_size(20);

    group.bench_function("build-adder-carry/12vars", |b| {
        b.iter(|| {
            let mut mgr = BddManager::new(12);
            // Carry chain of a 6-bit adder.
            let mut carry = mgr.zero();
            for i in 0..6 {
                let a = mgr.variable(i);
                let bvar = mgr.variable(6 + i);
                let ab = mgr.and(a, bvar);
                let axb = mgr.xor(a, bvar);
                let propagate = mgr.and(axb, carry);
                carry = mgr.or(ab, propagate);
            }
            std::hint::black_box(mgr.sat_count(carry))
        });
    });

    group.bench_function("cover-to-bdd/16cubes", |b| {
        let cubes: Vec<String> = (0..16)
            .map(|i| {
                (0..10)
                    .map(|v| match (i * 7 + v * 3) % 3 {
                        0 => '0',
                        1 => '1',
                        _ => '-',
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&str> = cubes.iter().map(String::as_str).collect();
        let cover = Cover::from_strs(10, &refs).expect("generated cubes are valid");
        b.iter(|| {
            let mut mgr = BddManager::new(10);
            let f = mgr.cover(&cover);
            std::hint::black_box(mgr.sat_count(f))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_bdd);
criterion_main!(benches);
