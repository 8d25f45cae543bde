//! Criterion micro-benchmarks: Recording-Module sketches.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pint_sketches::{KllSketch, MorrisCounter, SpaceSaving};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_sketches(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketches");

    g.bench_function("kll_update", |b| {
        let mut sk = KllSketch::new(200);
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            sk.update(black_box(x >> 32));
        })
    });
    g.bench_function("kll_quantile_after_100k", |b| {
        let mut sk = KllSketch::new(200);
        for v in 0..100_000u64 {
            sk.update(v);
        }
        b.iter(|| black_box(sk.quantile(0.99)))
    });
    g.bench_function("spacesaving_update", |b| {
        let mut ss = SpaceSaving::new(100);
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| ss.update(black_box(rng.gen_range(0..10_000))))
    });
    g.bench_function("morris_increment", |b| {
        let mut m = MorrisCounter::new(16.0);
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| m.increment(&mut rng))
    });
    g.finish();
}

criterion_group!(benches, bench_sketches);
criterion_main!(benches);
