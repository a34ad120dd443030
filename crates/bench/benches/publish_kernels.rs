//! Micro-benchmark of one hot-swap publish on a replica: decode the
//! `GbdtModel::encode_bytes` payload, compile it (flat plus quantized
//! layout), and drop both, at the `serve` workload's shape — 256 complete
//! trees of depth 8 over 32 features, a 1.2 MB payload. Decode and compile
//! are also timed alone.

use criterion::{criterion_group, criterion_main, Criterion};
use gbdt_bench::servegrid::synthetic_model;
use gbdt_core::GbdtModel;
use gbdt_serve::compile::compile;
use std::hint::black_box;

fn bench_publish(c: &mut Criterion) {
    let bytes = synthetic_model(1, 256, 8, 32).encode_bytes();
    let model = GbdtModel::decode_bytes(&bytes).expect("generated model decodes");
    let mut group = c.benchmark_group("publish_t256_l8");
    group.bench_function("decode", |b| {
        b.iter(|| black_box(GbdtModel::decode_bytes(black_box(&bytes))))
    });
    group.bench_function("compile", |b| b.iter(|| black_box(compile(black_box(&model), 2))));
    group.bench_function("decode_compile_drop", |b| {
        b.iter(|| {
            let model = GbdtModel::decode_bytes(black_box(&bytes)).expect("decodes");
            drop(black_box(compile(&model, 2)));
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_publish
}
criterion_main!(benches);
