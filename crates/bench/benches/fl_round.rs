//! Criterion benchmarks of one federated round: FedAvg vs FedDA (Restart
//! and Explore), measuring the end-to-end cost of local updates +
//! aggregation + evaluation at a fixed federation size — and of the uplink
//! report path's kernels on their own.

use criterion::{criterion_group, criterion_main, Criterion};
use fedda::experiment::{Dataset, Experiment, ExperimentConfig, Framework};
use fedda::fl::{Compression, FedAvg, FedDa};
use fedda_bench::suite::CodecCase;
use fedda_bench::{experiment_model, experiment_train};
use fedda_tensor::Adam;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn one_round_config() -> ExperimentConfig {
    ExperimentConfig {
        dataset: Dataset::DblpLike,
        scale: 0.0015,
        num_clients: 4,
        rounds: 1,
        runs: 1,
        model: experiment_model(false),
        train: experiment_train(),
        seed: 3,
        ..Default::default()
    }
}

fn bench_round(c: &mut Criterion) {
    let exp = Experiment::new(one_round_config());
    let mut group = c.benchmark_group("fl_round");
    group.bench_function("fedavg", |b| {
        b.iter(|| exp.run_framework(&Framework::FedAvg(FedAvg::vanilla())))
    });
    group.bench_function("fedda_restart", |b| {
        b.iter(|| exp.run_framework(&Framework::FedDa(FedDa::restart())))
    });
    group.bench_function("fedda_explore", |b| {
        b.iter(|| exp.run_framework(&Framework::FedDa(FedDa::explore())))
    });
    group.finish();
}

/// The uplink report path at the fleet model's size
/// (`fedda_bench::suite::CodecCase`): each codec's encode, the q8 arrival
/// decode into the delivery's own buffer, and one Adam step.
fn bench_codec(c: &mut Criterion) {
    let mut case = CodecCase::new(&mut StdRng::seed_from_u64(5));
    let mut group = c.benchmark_group("codec");
    for (label, codec) in [
        ("q8", Compression::QuantI8),
        ("f16", Compression::QuantF16),
        ("topk", Compression::TopK { frac: 0.25 }),
    ] {
        group.bench_function(format!("{label}/encode"), |b| b.iter(|| case.encode(codec)));
    }
    let report = case.encode(Compression::QuantI8);
    let mut delivery = case.delivery();
    group.bench_function("q8/decode", |b| {
        b.iter(|| case.decode(&mut delivery, &report))
    });
    let mut adam = Adam::new(5e-3);
    group.bench_function("adam_step", |b| b.iter(|| case.adam_step(&mut adam)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_round, bench_codec
}
criterion_main!(benches);
