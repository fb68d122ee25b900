//! Criterion micro-benchmarks of the tensor kernels on the hot path of
//! Simple-HGN training: dense matmul, gather/scatter message passing, the
//! per-destination segment softmax, and the fused edge kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedda_bench::suite::{gemm_case, EdgeCase, EDGE_SHAPES, GEMM_SHAPES};
use fedda_tensor::{Graph, Matrix, Segments};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn rand_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    Matrix::from_vec(
        r,
        c,
        (0..r * c).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    )
}

/// The GEMM shapes an FL round issues (`fedda_bench::suite::GEMM_SHAPES`),
/// every layout, through the `Matrix` entry points.
fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(0);
    for &(layout, m, k, n) in GEMM_SHAPES {
        let (a, b, kernel) = gemm_case(&mut rng, layout, (m, k, n));
        let shape = format!("{m}x{k}x{n}");
        group.bench_with_input(BenchmarkId::new(layout, &shape), &shape, |bench, _| {
            bench.iter(|| kernel(&a, &b))
        });
    }
    group.finish();
}

/// Thread scaling above the threading cut-off: 1 thread vs the full
/// `FEDDA_THREADS` budget (results are bit-identical either way; only
/// wall-clock should differ).
fn bench_matmul_thread_scaling(c: &mut Criterion) {
    use fedda_tensor::gemm;
    let mut group = c.benchmark_group("matmul_threads");
    let mut rng = StdRng::seed_from_u64(4);
    let n = 512usize;
    let a = rand_matrix(&mut rng, n, n);
    let b = rand_matrix(&mut rng, n, n);
    group.bench_with_input(BenchmarkId::new("threads", 1), &n, |bench, _| {
        bench.iter(|| gemm::with_kernel_threads(1, || a.matmul(&b)))
    });
    let full = gemm::configured_threads();
    group.bench_with_input(BenchmarkId::new("threads", full), &n, |bench, _| {
        bench.iter(|| a.matmul(&b))
    });
    group.finish();
}

fn bench_gather_scatter(c: &mut Criterion) {
    let mut group = c.benchmark_group("message_passing");
    let mut rng = StdRng::seed_from_u64(1);
    let nodes = 2_000usize;
    let dim = 32usize;
    for &edges in &[10_000usize, 50_000] {
        let h = rand_matrix(&mut rng, nodes, dim);
        let idx: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect();
        group.bench_with_input(BenchmarkId::new("gather_rows", edges), &edges, |b, _| {
            b.iter(|| h.gather_rows(&idx))
        });
        let msgs = rand_matrix(&mut rng, edges, dim);
        group.bench_with_input(BenchmarkId::new("scatter_add", edges), &edges, |b, _| {
            b.iter(|| msgs.scatter_add_rows(&idx, nodes))
        });
    }
    group.finish();
}

fn bench_segment_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("segment_softmax");
    let mut rng = StdRng::seed_from_u64(2);
    let nodes = 2_000usize;
    for &edges in &[10_000usize, 50_000] {
        let seg: Vec<u32> = (0..edges).map(|_| rng.gen_range(0..nodes as u32)).collect();
        let segs = Arc::new(Segments::new(seg, nodes));
        let scores = rand_matrix(&mut rng, edges, 1);
        group.bench_with_input(BenchmarkId::new("fwd", edges), &edges, |b, _| {
            b.iter(|| {
                let mut g = Graph::new();
                let x = g.input(scores.clone());
                g.segment_softmax(x, segs.clone())
            })
        });
        group.bench_with_input(BenchmarkId::new("fwd_bwd", edges), &edges, |b, _| {
            b.iter(|| {
                let mut g = Graph::new();
                let x = g.leaf(scores.clone());
                let sm = g.segment_softmax(x, segs.clone());
                let sq = g.mul(sm, sm);
                let loss = g.sum_all(sq);
                g.backward(loss);
            })
        });
    }
    group.finish();
}

/// The fused per-edge ops, forward + backward, at the real client shapes
/// (`fedda_bench::suite::EDGE_SHAPES`).
fn bench_edge_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("edge");
    let mut rng = StdRng::seed_from_u64(3);
    for &shape in EDGE_SHAPES {
        let (nodes, edges, _, width) = shape;
        let edge = EdgeCase::new(&mut rng, shape);
        let label = format!("E{edges}xN{nodes}xd{width}");
        group.bench_with_input(BenchmarkId::new("softmax", &label), &label, |b, _| {
            b.iter(|| edge.softmax_fwd_bwd())
        });
        group.bench_with_input(BenchmarkId::new("aggregate", &label), &label, |b, _| {
            b.iter(|| edge.aggregate_fwd_bwd())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matmul, bench_matmul_thread_scaling, bench_gather_scatter,
        bench_segment_softmax, bench_edge_kernels
}
criterion_main!(benches);
