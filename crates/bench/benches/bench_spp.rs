//! Criterion bench: 2-SPP synthesis and the 0→1 approximation.

use bidecomp_bench::{criterion_group, criterion_main, Criterion};

use benchmarks::arithmetic;
use spp::{BoundedExpansion, FullExpansion, SppSynthesizer};

fn bench_spp(c: &mut Criterion) {
    let mut group = c.benchmark_group("spp");
    group.sample_size(10);

    let z4 = arithmetic::z4();
    let f = &z4.outputs()[0];
    let synthesizer = SppSynthesizer::new();

    group.bench_function("synthesize/z4-out0", |b| {
        b.iter(|| std::hint::black_box(synthesizer.synthesize(f)).literal_count());
    });

    let form = synthesizer.synthesize(f);
    group.bench_function("bounded-expansion/z4-out0", |b| {
        b.iter(|| std::hint::black_box(BoundedExpansion::new(0.1).approximate(&form, f)).errors);
    });
    group.bench_function("full-expansion/z4-out0", |b| {
        b.iter(|| {
            std::hint::black_box(FullExpansion::new().approximate(&form, f, &synthesizer)).errors
        });
    });

    // The full-expansion widening on a 12-input function: the word-parallel
    // kernel the recursion runs, and its per-expansion oracle.
    let add6 = arithmetic::add6();
    let carry = &add6.outputs()[6];
    let carry_form = synthesizer.synthesize(carry);
    group.bench_function("widen/add6-out6", |b| {
        b.iter(|| std::hint::black_box(FullExpansion::new().widen(&carry_form, carry)));
    });
    group.bench_function("widen-per-expansion/add6-out6", |b| {
        b.iter(|| {
            std::hint::black_box(FullExpansion::new().widen_per_expansion(&carry_form, carry))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_spp);
criterion_main!(benches);
