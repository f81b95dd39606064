//! Micro-benchmarks of MCACHE probe/insert/read — the per-vector overhead
//! of similarity bookkeeping. The `*_rw` cases add the write and counted
//! read an engine performs per resolved entry, on a plain `MCache` and on
//! the one- and eight-bank `BankedMCache` the engines hold, so the cost of
//! flat entry ids is measured beside the monolithic cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mercury_mcache::banked::BankedMCache;
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
                    let mut cache = MCache::new(MCacheConfig::new(sets, ways, 1).unwrap());
                    for &s in &sigs {
                        black_box(cache.probe_insert(s));
                    }
                })
            },
        );
    }
    let mut rng = Rng::new(3);
    let sigs: Vec<Signature> = (0..1000)
        .map(|_| Signature::from_bits(rng.next_u64() as u128, 20))
        .collect();
    let config = MCacheConfig::paper_default();
    group.bench_function("mcache_64x16_rw", |b| {
        b.iter(|| {
            let mut cache = MCache::new(config);
            for &s in &sigs {
                if let Some(id) = cache.probe_insert(s).entry {
                    cache.write(id, 0, 1.0).unwrap();
                    black_box(cache.read_counted(id, 0));
                }
            }
        })
    });
    for banks in [1usize, 8] {
        let per_bank = MCacheConfig::new(config.sets / banks, config.ways, 1).unwrap();
        group.bench_function(format!("banked{banks}_64x16_rw"), |b| {
            b.iter(|| {
                let mut cache = BankedMCache::new(banks, per_bank).unwrap();
                for &s in &sigs {
                    if let Some(id) = cache.probe_insert(s).entry {
                        cache.write(id, 0, 1.0).unwrap();
                        black_box(cache.read_counted(id, 0));
                    }
                }
            })
        });
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
