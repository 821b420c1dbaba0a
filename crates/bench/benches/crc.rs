//! CRC-32C throughput: the checksum runs on every verified page read and
//! every write-back, so its speed bounds the buffer pool's miss path.
//! Compares the dispatched kernel (three interleaved `crc32` streams on
//! x86-64 with SSE4.2) against the portable slicing-by-8 kernel and the
//! bytewise reference on an 8 KiB page, and times small
//! log-record-sized fragments.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spf_util::{crc32c, crc32c_bytewise, crc32c_portable, Crc32c};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32c");
    group.sample_size(50);

    let page: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(31) >> 3) as u8)
        .collect();
    group.bench_function("dispatched_8k_page", |b| {
        b.iter(|| black_box(crc32c(black_box(&page))))
    });
    group.bench_function("portable_8k_page", |b| {
        b.iter(|| black_box(crc32c_portable(black_box(&page))))
    });
    group.bench_function("bytewise_8k_page", |b| {
        b.iter(|| black_box(crc32c_bytewise(black_box(&page))))
    });

    // Log-record shape: a small header fragment plus a modest body, fed
    // incrementally (the WAL's usage pattern).
    let header = &page[..40];
    let body = &page[40..296];
    group.bench_function("incremental_log_record", |b| {
        b.iter(|| {
            let mut hasher = Crc32c::new();
            hasher.update(black_box(header));
            hasher.update(black_box(body));
            black_box(hasher.finalize())
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
