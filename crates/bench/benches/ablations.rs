//! ABL-1..4 — the §7 optimization ablations (README.md, `repro --exp abl-*`):
//! duplicate-communication elimination, schedule reuse, fused
//! multicast_shift, overlap vs temporary shift.

use criterion::{criterion_group, criterion_main, Criterion};
use f90d_bench::experiments::{
    ablation_merge_comm, ablation_multicast_shift, ablation_overlap_shift, ablation_schedule_reuse,
};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("abl1_merge_comm", |b| {
        b.iter(|| ablation_merge_comm(48, 8));
    });
    g.bench_function("abl2_schedule_reuse", |b| {
        b.iter(|| ablation_schedule_reuse(1024, 8));
    });
    g.bench_function("abl3_multicast_shift", |b| {
        b.iter(|| ablation_multicast_shift(64));
    });
    g.bench_function("abl4_overlap_shift", |b| {
        b.iter(|| ablation_overlap_shift(64, 4, 4));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
