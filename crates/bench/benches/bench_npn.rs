//! Criterion bench: the two per-request table kernels of the service.
//!
//! `canonicalize_word` / `verify_word` are the production paths (NPN
//! canonicalization and network verification on packed 64-minterm words);
//! `canonicalize_per_minterm` / `verify_per_minterm` are their per-minterm
//! oracles. Each pair returns identical results. The functions are
//! `service-cold`-style: eight random cubes of two or three literals.

use bidecomp_bench::{criterion_group, criterion_main, Criterion};

use benchmarks::DetRng;
use bidecomp::{verify_network, verify_network_per_minterm, RecursiveSynthesizer};
use boolfunc::Isf;
use service::npn::{canonicalize, canonicalize_per_minterm};

/// Eight random cubes of two or three literals over `num_vars` inputs.
fn cube_function(rng: &mut DetRng, num_vars: usize) -> Isf {
    let cubes: Vec<String> = (0..8)
        .map(|_| {
            let mut chars = vec!['-'; num_vars];
            for _ in 0..2 + rng.next_u64() % 2 {
                let var = (rng.next_u64() % num_vars as u64) as usize;
                chars[var] = if rng.next_u64() & 1 == 0 { '0' } else { '1' };
            }
            chars.into_iter().collect()
        })
        .collect();
    let cubes: Vec<&str> = cubes.iter().map(String::as_str).collect();
    Isf::from_cover_str(num_vars, &cubes, &[]).expect("generated cubes are well-formed")
}

fn bench_npn(c: &mut Criterion) {
    let mut group = c.benchmark_group("npn");
    group.sample_size(10);

    let mut rng = DetRng::seed_from_u64(0x004E_504E);
    for &num_vars in &[9usize, 12] {
        let f = cube_function(&mut rng, num_vars);
        group.bench_function(format!("canonicalize_word/{num_vars}vars"), |b| {
            b.iter(|| std::hint::black_box(canonicalize(&f)).key.num_vars());
        });
        group.bench_function(format!("canonicalize_per_minterm/{num_vars}vars"), |b| {
            b.iter(|| std::hint::black_box(canonicalize_per_minterm(&f)).key.num_vars());
        });

        let network = RecursiveSynthesizer::default().synthesize(&f).expect("synthesizes").network;
        group.bench_function(format!("verify_word/{num_vars}vars"), |b| {
            b.iter(|| std::hint::black_box(verify_network(&f, &network, 0)));
        });
        group.bench_function(format!("verify_per_minterm/{num_vars}vars"), |b| {
            b.iter(|| std::hint::black_box(verify_network_per_minterm(&f, &network, 0)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_npn);
criterion_main!(benches);
