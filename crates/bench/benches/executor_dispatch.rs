//! Microbenchmarks of parallel-region *dispatch* cost: the persistent
//! worker pool (each worker blocked on its job channel between regions)
//! and a second handle that joins a live pool, beside the serial loop.
//!
//! The region body is intentionally near-empty — these benches time the
//! scheduling machinery, not the work.

use criterion::{criterion_group, criterion_main, Criterion};
use mercury_tensor::exec::Executor;
use std::hint::black_box;

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_dispatch");
    group.sample_size(50);

    // One warm pool per width, created outside the timed region — the
    // whole point is that regions reuse it.
    for width in [2usize, 4] {
        let pool = Executor::threaded(width);
        group.bench_function(format!("pooled_w{width}"), |b| {
            b.iter(|| pool.map_indexed(width, |i| black_box(i) * 2 + 1))
        });
    }

    // A handle resolved while a warm pool of its width is alive on this
    // thread, as every engine of a network resolves its own: it joins that
    // pool, so building it, dispatching one region and dropping it spawns
    // and joins no thread.
    let warm = Executor::threaded(2);
    warm.map_indexed(2, |i| i);
    group.bench_function("second_handle_w2", |b| {
        b.iter(|| Executor::threaded(2).map_indexed(2, |i| black_box(i) * 2 + 1))
    });
    drop(warm);

    // Serial reference for the same loop, as the floor.
    let serial = Executor::serial();
    group.bench_function("serial_loop", |b| {
        b.iter(|| serial.map_indexed(4, |i| black_box(i) * 2 + 1))
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
