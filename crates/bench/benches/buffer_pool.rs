//! Buffer-pool fetch paths: hits, misses with verification, the full
//! read-verify pipeline under eviction pressure — and, since the sharded
//! rewrite, multi-threaded throughput of the same paths.
//!
//! The concurrent benchmarks are the pool's first recorded perf
//! baseline: single-threaded numbers bound the per-fetch cost, the
//! multi-threaded ones show the sharded table scaling where the old
//! single-mutex pool serialized (and, on the miss path, performed device
//! I/O while holding the global lock).

use criterion::{criterion_group, criterion_main, Criterion};
use spf_bench::{concurrent_fetch_time, engine, load};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_pool");
    group.sample_size(20);

    // All-resident: hits only.
    let db = engine(|cfg| {
        cfg.data_pages = 4096;
        cfg.pool_frames = 2048;
    });
    load(&db, 20_000);
    let leaves = db.leaf_pages();
    group.bench_function("fetch_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 13) % leaves.len();
            std::hint::black_box(db.pool().fetch(leaves[i]).unwrap())
        })
    });

    // Hit-path scaling: the same all-resident workload across threads.
    // Per-iteration time shrinking with the thread count is the sharded
    // table at work; the old global mutex kept it flat.
    for threads in [2usize, 4, 8] {
        group.bench_function(format!("fetch_hit_threads_{threads}"), |b| {
            b.iter_custom(|iters| {
                concurrent_fetch_time(&db, &leaves, threads, iters).expect("fetch workers")
            })
        });
    }

    // Tiny pool: every fetch misses, reads the device, verifies the
    // checksum and the PRI cross-check.
    let db = engine(|cfg| {
        cfg.data_pages = 4096;
        cfg.pool_frames = 8;
    });
    load(&db, 20_000);
    db.drop_cache();
    let leaves = db.leaf_pages();
    group.bench_function("fetch_miss_verify", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 13) % leaves.len();
            std::hint::black_box(db.pool().fetch(leaves[i]).unwrap())
        })
    });

    // Miss-path concurrency: a larger (but still thrashing) pool, four
    // threads faulting disjoint stretches. Device reads and verification
    // overlap because no table lock is held across them.
    let db = engine(|cfg| {
        cfg.data_pages = 4096;
        cfg.pool_frames = 64;
    });
    load(&db, 20_000);
    db.drop_cache();
    let leaves = db.leaf_pages();
    group.bench_function("fetch_miss_verify_threads_4", |b| {
        b.iter_custom(|iters| concurrent_fetch_time(&db, &leaves, 4, iters).expect("fetch workers"))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
