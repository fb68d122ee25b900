//! Per-layer probes: timed calls into each crate's public functions at the
//! workload's own shapes, plus the counts taken at the same boundaries.
//!
//! Every probe runs on the calling thread with one kernel thread — the
//! condition a client update runs under inside a two-worker pool.

use crate::trace::Trace;
use crate::workloads::{Spec, WORKERS};
use fedda::experiment::{Dataset, Experiment};
use fedda_data::{amazon_like, dblp_like, partition_non_iid, PartitionConfig, PresetOptions};
use fedda_fl::runtime::{Scheduler, WorkerPool};
use fedda_fl::FlSystem;
use fedda_hetgraph::split::split_edges;
use fedda_hetgraph::{LinkExample, LinkSampler};
use fedda_hgn::{train_local, GraphView};
use fedda_metrics::{mrr, roc_auc, RankQuery};
use fedda_tensor::gemm::with_kernel_threads;
use fedda_tensor::{Adam, Graph, Matrix, TapeBindings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Metric name → value, in the metric's declared unit.
pub type Metrics = BTreeMap<&'static str, f64>;

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median wall time of `reps` calls of `f`, in ms, each under a span.
fn time_ms<R>(trace: &mut Trace, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| trace.timed(name, None, || black_box(f())).1)
        .collect();
    median(&samples)
}

/// A deterministic dense matrix with no zeros (the kernels skip them).
fn dense(rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| ((i * 37 + 11) % 97) as f32 / 97.0 + 0.01)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Set-up layers: generator, split, partitioner, `Experiment::new`,
/// `GraphView::new` and `FlSystem::new`.
pub fn setup_probes(spec: &Spec, seed: u64, reps: usize, trace: &mut Trace, out: &mut Metrics) {
    let root = trace.begin("probe.setup", None);
    let opts = PresetOptions {
        scale: spec.scale,
        seed: spec.data_seed,
        ..Default::default()
    };
    let generate = || match spec.dataset {
        Dataset::AmazonLike => amazon_like(&opts),
        Dataset::DblpLike => dblp_like(&opts),
    };
    out.insert(
        "data.generate_ms",
        time_ms(trace, "data.generate", reps, generate),
    );
    let graph = generate().graph;
    let fraction = spec.dataset.test_fraction();
    out.insert(
        "hetgraph.split_ms",
        time_ms(trace, "hetgraph.split", reps, || {
            split_edges(&graph, fraction, &mut StdRng::seed_from_u64(spec.data_seed))
        }),
    );
    out.insert(
        "core.experiment_new_ms",
        time_ms(trace, "core.experiment_new", reps, || {
            Experiment::new(spec.experiment_config())
        }),
    );
    let exp = Experiment::new(spec.experiment_config());
    let train = &exp.split().train;
    let pcfg = PartitionConfig::paper_defaults(
        spec.base_clients,
        train.schema().num_edge_types(),
        spec.data_seed,
    );
    out.insert(
        "data.partition_ms",
        time_ms(trace, "data.partition", reps, || {
            partition_non_iid(train, &pcfg)
        }),
    );
    let base = exp.clients_for_run(0);
    let self_loops = spec.model.add_self_loops;
    out.insert(
        "hgn.view_build_ms",
        time_ms(trace, "hgn.view_build", reps, || {
            base.iter()
                .map(|c| GraphView::new(&c.graph, self_loops).num_nodes)
                .sum::<usize>()
        }),
    );
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let clients = spec.clients(&exp);
            let cfg = spec.fl_config(seed, WORKERS);
            let build = || black_box(FlSystem::new(train, &exp.split().test, clients, cfg));
            trace.timed("fl.system_new", None, build).1
        })
        .collect();
    out.insert("fl.system_new_ms", median(&samples));
    trace.end(root);
}

/// Run-time layers, probed on a fresh (round-0) system.
pub fn run_probes(
    spec: &Spec,
    exp: &Experiment,
    system: &FlSystem,
    reps: usize,
    trace: &mut Trace,
    out: &mut Metrics,
) {
    with_kernel_threads(1, || {
        let root = trace.begin("probe.run", None);
        let mut protocol = spec.protocol();
        let mut rng = StdRng::seed_from_u64(system.config().seed ^ protocol.seed_tweak());
        protocol.begin(system, &mut rng);
        let active = protocol.select_clients(system, 0, &mut rng);
        local_round_probes(spec, system, &active, reps, trace, out);
        let client = &system.clients[active[0]];
        tensor_probes(spec, system, &client.view, reps, trace, out);
        step_probes(system, active[0], reps, trace, out);
        eval_probes(spec, exp, system, reps, trace, out);
        runtime_probes(active.len(), reps, trace, out);
        trace.end(root);
    });
}

/// The pool's round against the same clients trained one after another.
fn local_round_probes(
    spec: &Spec,
    system: &FlSystem,
    active: &[usize],
    reps: usize,
    trace: &mut Trace,
    out: &mut Metrics,
) {
    let pooled = time_ms(trace, "fl.local_round.probe", reps, || {
        system.run_local_round_with(active, 0, &[])
    });
    let train_cfg = spec.train();
    let mut steps = 0;
    let serial = time_ms(trace, "hgn.train_local_serial", reps, || {
        steps = 0;
        for &i in active {
            let client = &system.clients[i];
            let mut params = system.global.clone();
            let sampler = LinkSampler::new(&client.data.graph);
            let mut rng = StdRng::seed_from_u64(i as u64);
            let stats = train_local(
                system.model.as_ref(),
                &mut params,
                &client.view,
                &sampler,
                &client.positives,
                &train_cfg,
                &mut rng,
            );
            steps += stats.steps;
        }
    });
    out.insert("fl.local_round_ms", pooled);
    out.insert("fl.local_round_clients", active.len() as f64);
    out.insert("hgn.train_local_ms", serial);
    out.insert("hgn.train_steps", steps as f64);
    out.insert("fl.pool_efficiency", serial / (WORKERS as f64 * pooled));

    let client = &system.clients[active[0]];
    let sampler = LinkSampler::new(&client.data.graph);
    let mut examples = 0;
    out.insert(
        "hetgraph.neg_sample_ms",
        time_ms(trace, "hetgraph.neg_sample", reps, || {
            let mut rng = StdRng::seed_from_u64(7);
            let ex = sampler.with_negatives(
                &client.positives,
                train_cfg.negatives_per_positive,
                &mut rng,
            );
            examples = ex.len();
            ex
        }),
    );
    out.insert("hetgraph.examples_per_epoch", examples as f64);
}

/// The kernels at the workload's own first-layer shape: client nodes ×
/// feature width × model width, and client message edges for the row ops.
fn tensor_probes(
    spec: &Spec,
    system: &FlSystem,
    view: &GraphView,
    reps: usize,
    trace: &mut Trace,
    out: &mut Metrics,
) {
    let n = view.num_nodes;
    let k = view.type_features[0].cols();
    let m = spec.model.out_dim();
    let x = dense(n, k);
    let w = dense(k, m);
    let dy = dense(n, m);
    out.insert(
        "tensor.gemm_nn_ms",
        time_ms(trace, "tensor.gemm_nn", reps, || x.matmul(&w)),
    );
    out.insert(
        "tensor.gemm_tn_ms",
        time_ms(trace, "tensor.gemm_tn", reps, || x.matmul_tn(&dy)),
    );
    out.insert(
        "tensor.gemm_nt_ms",
        time_ms(trace, "tensor.gemm_nt", reps, || dy.matmul_nt(&w)),
    );
    out.insert("tensor.gemm_flops", (2 * n * k * m) as f64);

    let edges = view.src.len();
    let per_edge = time_ms(trace, "tensor.gather_rows", reps, || {
        dy.gather_rows(&view.src)
    });
    out.insert("tensor.gather_rows_ms", per_edge);
    let messages = dy.gather_rows(&view.src);
    out.insert(
        "tensor.scatter_add_ms",
        time_ms(trace, "tensor.scatter_add", reps, || {
            messages.scatter_add_rows(&view.dst, n)
        }),
    );
    let scores = dense(edges, 1);
    out.insert(
        "tensor.segment_softmax_ms",
        time_ms(trace, "tensor.segment_softmax", reps, || {
            let mut g = Graph::new();
            let a = g.input(scores.clone());
            g.segment_softmax(a, Arc::clone(&view.segments))
        }),
    );
    out.insert(
        "fl.broadcast_clone_ms",
        time_ms(trace, "fl.broadcast_clone.probe", reps, || {
            system.global.clone()
        }),
    );
    let mut params = system.global.clone();
    let mut adam = Adam::new(5e-3);
    out.insert(
        "tensor.adam_step_ms",
        time_ms(trace, "tensor.adam_step", reps, || adam.step(&mut params)),
    );
}

/// One hand-built training step on one client, phase by phase.
fn step_probes(
    system: &FlSystem,
    client: usize,
    reps: usize,
    trace: &mut Trace,
    out: &mut Metrics,
) {
    let client = &system.clients[client];
    let cfg = &system.config().train;
    let model = system.model.as_ref();
    let sampler = LinkSampler::new(&client.data.graph);
    let mut rng = StdRng::seed_from_u64(11);
    let mut examples =
        sampler.with_negatives(&client.positives, cfg.negatives_per_positive, &mut rng);
    let batches = LinkSampler::batches(&mut examples, cfg.batch_size.max(1), &mut rng);
    let batch = &batches[0];
    let targets: Arc<Vec<f32>> = Arc::new(
        batch
            .iter()
            .map(|e| if e.label { 1.0 } else { 0.0 })
            .collect(),
    );
    let (mut enc, mut score, mut back, mut optim) = (vec![], vec![], vec![], vec![]);
    let mut tape_nodes = 0;
    for _ in 0..reps {
        let mut params = system.global.clone();
        let mut adam = Adam::new(cfg.lr);
        let mut graph = Graph::with_capacity(256);
        let mut bindings = TapeBindings::new();
        let (emb, ms) = trace.timed("hgn.encode_fwd", None, || {
            model.encode_nodes(&mut graph, &mut bindings, &params, &client.view, None)
        });
        enc.push(ms);
        let (loss, ms) = trace.timed("hgn.score_fwd", None, || {
            let logits = model.score_examples(&mut graph, &mut bindings, &params, emb, batch);
            graph.bce_with_logits(logits, Arc::clone(&targets))
        });
        score.push(ms);
        back.push(trace.timed("hgn.backward", None, || graph.backward(loss)).1);
        let step = || {
            params.zero_grads();
            bindings.accumulate_grads(&graph, &mut params);
            params.clip_grad_norm(cfg.grad_clip);
            adam.step(&mut params);
        };
        optim.push(trace.timed("hgn.optim", None, step).1);
        tape_nodes = graph.len();
    }
    out.insert("hgn.encode_fwd_ms", median(&enc));
    out.insert("hgn.score_fwd_ms", median(&score));
    out.insert("hgn.backward_ms", median(&back));
    out.insert("hgn.optim_ms", median(&optim));
    out.insert("hgn.tape_nodes", tape_nodes as f64);
}

/// Evaluation at the workload's own size: the forward pass over the global
/// training graph, then the two metrics over its logits.
fn eval_probes(
    spec: &Spec,
    exp: &Experiment,
    system: &FlSystem,
    reps: usize,
    trace: &mut Trace,
    out: &mut Metrics,
) {
    let split = exp.split();
    let view = GraphView::new(&split.train, system.model.uses_self_loops());
    let sampler = LinkSampler::new(&split.train);
    let positives = LinkSampler::new(&split.test).all_positives();
    let mut rng = StdRng::seed_from_u64(13);
    let examples: Vec<LinkExample> =
        sampler.with_negatives(&positives, spec.eval_negatives, &mut rng);
    out.insert(
        "hgn.infer_logits_ms",
        time_ms(trace, "hgn.infer_logits", reps, || {
            system.model.logits(&system.global, &view, &examples)
        }),
    );
    let logits = system.model.logits(&system.global, &view, &examples);
    let labels: Vec<bool> = examples.iter().map(|e| e.label).collect();
    out.insert(
        "metrics.roc_auc_ms",
        time_ms(trace, "metrics.roc_auc", reps, || roc_auc(&logits, &labels)),
    );
    let queries: Vec<RankQuery> = logits
        .chunks(1 + spec.eval_negatives)
        .map(|c| RankQuery {
            positive: c[0],
            negatives: c[1..].to_vec(),
        })
        .collect();
    out.insert(
        "metrics.mrr_ms",
        time_ms(trace, "metrics.mrr", reps, || mrr(&queries)),
    );
    out.insert("metrics.eval_examples", examples.len() as f64);
}

/// The runtime's own overhead at the workload's wave size: event queue
/// traffic and an empty pool dispatch.
fn runtime_probes(wave: usize, reps: usize, trace: &mut Trace, out: &mut Metrics) {
    const ROUNDS: usize = 64;
    let per_event = time_ms(trace, "fl.sched_event", reps, || {
        let mut sched: Scheduler<usize> = Scheduler::new();
        let mut popped = 0;
        for round in 0..ROUNDS {
            for c in 0..wave {
                sched.schedule_at(round as u64, c);
            }
            while sched.pop().is_some() {
                popped += 1;
            }
        }
        popped
    }) * 1e6
        / (ROUNDS * wave) as f64;
    out.insert("fl.sched_event_ns", per_event);
    let items: Vec<usize> = (0..wave).collect();
    let pool = WorkerPool::new(WORKERS);
    let per_dispatch = time_ms(trace, "fl.pool_dispatch", reps, || {
        for _ in 0..ROUNDS {
            black_box(pool.run_ordered(&items, |&i| i));
        }
    }) * 1e3
        / ROUNDS as f64;
    out.insert("fl.pool_dispatch_us", per_dispatch);
}
