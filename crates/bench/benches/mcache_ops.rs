//! Micro-benchmarks of MCACHE probe/insert and lookup — the per-vector
//! overhead of similarity bookkeeping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mercury_mcache::{MCache, MCacheConfig};
use mercury_rpq::Signature;
use mercury_tensor::rng::Rng;
use std::hint::black_box;

fn bench_probe_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcache_probe_insert_1k");
    for &(sets, ways) in &[(64usize, 16usize), (32, 16), (64, 8)] {
        let mut rng = Rng::new(3);
        let sigs: Vec<Signature> = (0..1000)
            .map(|_| Signature::from_bits(rng.next_u64() as u128, 20))
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{sets}x{ways}")),
            &(sets, ways),
            |b, &(sets, ways)| {
                b.iter(|| {
                    let mut cache = MCache::new(MCacheConfig::new(sets, ways).unwrap());
                    for &s in &sigs {
                        black_box(cache.probe_insert(s));
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_hit_path(c: &mut Criterion) {
    // Steady-state: all probes hit resident lines.
    let mut cache = MCache::new(MCacheConfig::paper_default());
    let mut rng = Rng::new(4);
    let sigs: Vec<Signature> = (0..512)
        .map(|_| Signature::from_bits(rng.next_u64() as u128, 20))
        .collect();
    for &s in &sigs {
        cache.probe_insert(s);
    }
    c.bench_function("mcache_hit_path_512", |b| {
        b.iter(|| {
            for &s in &sigs {
                black_box(cache.lookup(s));
            }
        })
    });
}

criterion_group!(benches, bench_probe_insert, bench_hit_path);
criterion_main!(benches);
