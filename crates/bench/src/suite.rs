//! The fixed, seeded perf suite behind the `perf` binary.
//!
//! Five tiers mirror the criterion benches (`benches/`) so snapshot
//! numbers track the same entry points the micro-benchmarks exercise:
//!
//! 1. **GEMM** — the products an FL round actually issues
//!    ([`GEMM_SHAPES`]): tall-skinny `N×d · d×d` forward shapes, their
//!    `tn`/`nt` backward forms and the single-column attention
//!    projections;
//! 2. **Edge kernels** — the fused per-edge tape ops, forward + backward,
//!    at the message-graph shapes of a real client ([`EDGE_SHAPES`]);
//! 3. **Uplink report path** — each codec's encode, the q8 arrival decode
//!    and one Adam step at the fleet model's size ([`CodecCase`]);
//! 4. **HGN** — Simple-HGN forward and forward+backward at the experiment
//!    model size on a DBLP-like graph;
//! 5. **FL round** — one full federated round (local updates +
//!    aggregation + evaluation) for FedAvg and both FedDA strategies at
//!    several dataset scales.
//!
//! The `--smoke` profile shrinks shapes, scales and sample counts to a
//! CI-sized run; case names are stable within a profile so `--compare`
//! can diff any two snapshots of the same profile.

use crate::snapshot::{time_case, CaseResult};
use crate::{experiment_model, experiment_train};
use fedda::experiment::{Dataset, Experiment, ExperimentConfig, Framework};
use fedda::fl::compress::decode_arrival;
use fedda::fl::runtime::Delivery;
use fedda::fl::{
    AsyncConfig, AsyncDriver, ClientReturn, Compressed, Compression, Delta, FedAvg, FedDa,
    FlConfig, FlSystem, InFlight, RoundDriver, RuntimeMode, UplinkCharge,
};
use fedda_hetgraph::split::split_edges;
use fedda_hetgraph::LinkSampler;
use fedda_hgn::{GraphView, SimpleHgn};
use fedda_tensor::{Adam, Graph, Matrix, ParamSet, Segments, TapeBindings, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

/// Suite profile and knobs.
#[derive(Clone, Copy, Debug)]
pub struct SuiteConfig {
    /// CI-sized profile: fewer shapes, smaller graphs, fewer samples.
    pub smoke: bool,
    /// Base seed for every generated input (matrices, graphs, runs).
    pub seed: u64,
    /// Override the per-case sample count (default 3 smoke / 5 full).
    pub samples: Option<u64>,
    /// Print per-case progress to stderr.
    pub progress: bool,
}

impl SuiteConfig {
    /// Profile label recorded in the snapshot.
    pub fn label(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    fn samples(&self) -> u64 {
        self.samples.unwrap_or(if self.smoke { 3 } else { 5 })
    }

    fn hgn_scale(&self) -> f64 {
        if self.smoke {
            0.001
        } else {
            0.002
        }
    }

    fn fl_scales(&self) -> &'static [f64] {
        if self.smoke {
            &[0.0008, 0.0015]
        } else {
            &[0.0015, 0.003, 0.006]
        }
    }

    fn throughput_clients(&self) -> &'static [usize] {
        if self.smoke {
            &[1_000]
        } else {
            &[1_000, 10_000]
        }
    }
}

/// The GEMM shape histogram of one federated round, as
/// `(layout, m, k, n)` with an `m × n` output over a shared dimension
/// `k`, taken from the repo benchmark's workloads: `amazon_large`'s
/// 2 525-node client graphs under the paper model (16 × 3 heads) — the
/// layer product and its two backward forms, then the attention
/// projection (a matvec) and its two — and the fleet's 128-wide model on
/// 101-node clients.
pub const GEMM_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("nn", 2525, 48, 16),
    ("nn", 2525, 48, 48),
    ("tn", 48, 2525, 16),
    ("nt", 2525, 16, 48),
    ("nn", 2525, 16, 1),
    ("tn", 16, 2525, 1),
    ("nt", 2525, 1, 16),
    ("nn", 101, 128, 32),
    ("nn", 101, 128, 128),
    ("tn", 128, 101, 32),
    ("nt", 101, 32, 128),
];

/// Random operands for one [`GEMM_SHAPES`] entry, stored the way the
/// layout reads them, and the `Matrix` entry point that multiplies them.
pub fn gemm_case(
    rng: &mut StdRng,
    layout: &str,
    (m, k, n): (usize, usize, usize),
) -> (Matrix, Matrix, fn(&Matrix, &Matrix) -> Matrix) {
    type Kernel = fn(&Matrix, &Matrix) -> Matrix;
    let ((ar, ac), (br, bc), kernel) = match layout {
        "nn" => ((m, k), (k, n), Matrix::matmul as Kernel),
        "tn" => ((k, m), (k, n), Matrix::matmul_tn as Kernel),
        "nt" => ((m, k), (n, k), Matrix::matmul_nt as Kernel),
        other => panic!("unknown GEMM layout {other}"),
    };
    (rand_matrix(rng, ar, ac), rand_matrix(rng, br, bc), kernel)
}

/// The per-edge shapes of one attention head, as `(nodes, message edges,
/// message types, head width)`, taken from the repo benchmark's clients
/// (self-loops included): the commonest `dblp_fedda` client under its
/// 8-wide heads, and `amazon_large`'s under the paper model's 16-wide.
pub const EDGE_SHAPES: &[(usize, usize, usize, usize)] =
    &[(694, 12_467, 6, 8), (2_525, 17_019, 3, 16)];

/// Random inputs of one [`EDGE_SHAPES`] entry and the forward + backward
/// pass of each fused edge op over them.
pub struct EdgeCase {
    nodes: usize,
    src: Arc<Vec<u32>>,
    dst: Arc<Vec<u32>>,
    etype: Arc<Vec<u32>>,
    segments: Arc<Segments>,
    s_src: Matrix,
    s_dst: Matrix,
    per_type: Matrix,
    h: Matrix,
    alpha: Matrix,
}

impl EdgeCase {
    /// Uniformly random endpoints, types, scores and features.
    pub fn new(
        rng: &mut StdRng,
        (nodes, edges, types, width): (usize, usize, usize, usize),
    ) -> Self {
        let mut pick =
            |hi: usize| -> Vec<u32> { (0..edges).map(|_| rng.gen_range(0..hi as u32)).collect() };
        let (src, dst, etype) = (pick(nodes), pick(nodes), pick(types));
        Self {
            nodes,
            segments: Arc::new(Segments::new(dst.clone(), nodes)),
            src: Arc::new(src),
            dst: Arc::new(dst),
            etype: Arc::new(etype),
            s_src: rand_matrix(rng, nodes, 1),
            s_dst: rand_matrix(rng, nodes, 1),
            per_type: rand_matrix(rng, types, 1),
            h: rand_matrix(rng, nodes, width),
            alpha: rand_matrix(rng, edges, 1),
        }
    }

    /// `edge_softmax` and its backward under a `Σ α²` loss.
    pub fn softmax_fwd_bwd(&self) {
        let mut g = Graph::new();
        let s_src = g.leaf(self.s_src.clone());
        let s_dst = g.leaf(self.s_dst.clone());
        let per_type = g.leaf(self.per_type.clone());
        let alpha = g.edge_softmax(
            s_src,
            s_dst,
            Some(per_type),
            self.src.clone(),
            self.etype.clone(),
            self.segments.clone(),
            0.2,
        );
        backward_sum_sq(&mut g, alpha);
    }

    /// `edge_aggregate` and its backward under a `Σ out²` loss.
    pub fn aggregate_fwd_bwd(&self) {
        let mut g = Graph::new();
        let h = g.leaf(self.h.clone());
        let alpha = g.leaf(self.alpha.clone());
        let out = g.edge_aggregate(h, alpha, self.src.clone(), self.dst.clone(), self.nodes);
        backward_sum_sq(&mut g, out);
    }
}

/// One fleet-sized client report on the uplink path: the repo
/// benchmark's `fleet_q8_*` model (32 × 4 heads, 2 layers — 87 554 scalars
/// in 62 units on the DBLP-like schema), a locally-moved copy of it, and
/// the all-units mask FedAvg requests.
pub struct CodecCase {
    reference: Arc<ParamSet>,
    updated: ParamSet,
    mask: Vec<bool>,
}

impl CodecCase {
    /// Seeded reference parameters and an update a few percent away, with
    /// a random gradient on it for the optimiser step.
    pub fn new(rng: &mut StdRng) -> Self {
        let schema = fedda::data::dblp_like(&fedda::data::PresetOptions {
            scale: 0.0008,
            seed: 1,
            ..Default::default()
        })
        .graph
        .schema()
        .clone();
        let model = fedda_hgn::HgnConfig {
            hidden_dim: 32,
            num_heads: 4,
            num_layers: 2,
            edge_emb_dim: 32,
            ..Default::default()
        };
        let (_, reference) = SimpleHgn::init_params(&schema, &model, rng);
        let mut updated = reference.clone();
        for (_, p) in updated.iter_mut() {
            let (value, grad) = p.value_and_grad_mut();
            for w in value.as_mut_slice() {
                *w += rng.gen_range(-0.02f32..0.02);
            }
            for g in grad.as_mut_slice() {
                *g = rng.gen_range(-1.0f32..1.0);
            }
        }
        Self {
            mask: vec![true; reference.len()],
            reference: Arc::new(reference),
            updated,
        }
    }

    /// Scalars in one report (the `n…` of the case names).
    pub fn num_scalars(&self) -> usize {
        self.reference.num_scalars()
    }

    /// Mask-then-compress the report under `codec`.
    pub fn encode(&self, codec: Compression) -> Compressed {
        codec.build().compress(&Delta {
            updated: &self.updated,
            reference: &self.reference,
            mask: &self.mask,
        })
    }

    /// The report's delivery as it reaches the server, minus the payload
    /// [`CodecCase::decode`] puts in.
    pub fn delivery(&self) -> Delivery {
        Delivery {
            client: 0,
            dispatch_pos: 0,
            dispatch_round: 0,
            ret: ClientReturn {
                client: 0,
                params: self.updated.clone(),
                unit_delta: Vec::new(),
            },
            mask: self.mask.clone(),
            charge: UplinkCharge::default(),
            payload: None,
        }
    }

    /// One server arrival: hand the delivery a copy of `report` (the decode
    /// consumes it; the copy is ~1 byte per scalar under q8) and decode it.
    pub fn decode(&self, delivery: &mut Delivery, report: &Compressed) {
        delivery.payload = Some(InFlight {
            report: report.clone(),
            reference: Arc::clone(&self.reference),
        });
        decode_arrival(delivery);
    }

    /// One Adam step over the report's units under their fixed gradient.
    pub fn adam_step(&mut self, adam: &mut Adam) {
        adam.step(&mut self.updated);
    }
}

fn backward_sum_sq(g: &mut Graph, out: Var) {
    let sq = g.mul(out, out);
    let loss = g.sum_all(sq);
    g.backward(loss);
    black_box(g.len());
}

fn rand_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    Matrix::from_vec(
        r,
        c,
        (0..r * c).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    )
}

/// Run the whole suite and return per-case results in suite order.
pub fn run_suite(cfg: &SuiteConfig) -> Vec<CaseResult> {
    let mut out = Vec::new();
    let push = |cases: &mut Vec<CaseResult>, case: CaseResult| {
        if cfg.progress {
            eprintln!(
                "  {} median {:.3} ms ({} samples x {} iters)",
                case.name,
                case.median_ns as f64 / 1e6,
                case.samples,
                case.iters
            );
        }
        cases.push(case);
    };

    // 1. The GEMM shapes of a real round, every layout.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for &(layout, m, k, n) in GEMM_SHAPES {
        let (a, b, kernel) = gemm_case(&mut rng, layout, (m, k, n));
        // Enough iterations that one sample is about a millisecond.
        let iters = (4_000_000 / (m * k * n)).max(1) as u64;
        let case = time_case(
            &format!("gemm/{layout}/{m}x{k}x{n}"),
            cfg.samples(),
            iters,
            || {
                black_box(kernel(&a, &b));
            },
        );
        push(&mut out, case);
    }

    // 1b. The fused edge kernels, forward + backward, at real client shapes.
    for &shape in EDGE_SHAPES {
        let (nodes, edges, _, width) = shape;
        let edge = EdgeCase::new(&mut rng, shape);
        let name = format!("edge/softmax/E{edges}xN{nodes}");
        let case = time_case(&name, cfg.samples(), 4, || edge.softmax_fwd_bwd());
        push(&mut out, case);
        let name = format!("edge/aggregate/E{edges}xN{nodes}xd{width}");
        let case = time_case(&name, cfg.samples(), 4, || edge.aggregate_fwd_bwd());
        push(&mut out, case);
    }

    // 1c. The uplink report path at the fleet model's size: each codec's
    //     encode, the q8 arrival decode, and one optimiser step.
    let mut codec_case = CodecCase::new(&mut rng);
    let n = codec_case.num_scalars();
    for (label, codec) in [
        ("q8", Compression::QuantI8),
        ("f16", Compression::QuantF16),
        ("topk", Compression::TopK { frac: 0.25 }),
    ] {
        let name = format!("codec/{label}/encode/n{n}");
        let case = time_case(&name, cfg.samples(), 8, || {
            black_box(codec_case.encode(codec));
        });
        push(&mut out, case);
    }
    let report = codec_case.encode(Compression::QuantI8);
    let mut delivery = codec_case.delivery();
    let name = format!("codec/q8/decode/n{n}");
    let case = time_case(&name, cfg.samples(), 8, || {
        codec_case.decode(&mut delivery, &report);
        black_box(&delivery.ret.unit_delta);
    });
    push(&mut out, case);
    let mut adam = Adam::new(5e-3);
    let name = format!("optim/adam_step/n{n}");
    let case = time_case(&name, cfg.samples(), 8, || codec_case.adam_step(&mut adam));
    push(&mut out, case);

    // 2. Simple-HGN forward / forward+backward at the experiment model
    //    size (mirrors benches/hgn_forward_backward.rs).
    let graph = fedda::data::dblp_like(&fedda::data::PresetOptions {
        scale: cfg.hgn_scale(),
        seed: cfg.seed,
        ..Default::default()
    })
    .graph;
    let model_cfg = experiment_model(false);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (model, params) = SimpleHgn::init_params(graph.schema(), &model_cfg, &mut rng);
    let view = GraphView::new(&graph, model_cfg.add_self_loops);
    let case = time_case("hgn/forward", cfg.samples(), 2, || {
        let mut g = Graph::new();
        let mut tb = TapeBindings::new();
        black_box(model.encode::<StdRng>(&mut g, &mut tb, &params, &view, None));
    });
    push(&mut out, case);

    let sampler = LinkSampler::new(&graph);
    let mut rng2 = StdRng::seed_from_u64(cfg.seed ^ 1);
    let pos = sampler.all_positives();
    let examples = sampler.with_negatives(&pos[..256.min(pos.len())], 1, &mut rng2);
    let targets: Arc<Vec<f32>> = Arc::new(
        examples
            .iter()
            .map(|e| if e.label { 1.0 } else { 0.0 })
            .collect(),
    );
    let case = time_case("hgn/forward_backward", cfg.samples(), 2, || {
        let mut g = Graph::new();
        let mut tb = TapeBindings::new();
        let emb = model.encode::<StdRng>(&mut g, &mut tb, &params, &view, None);
        let logits = model.score_links(&mut g, &mut tb, &params, emb, &examples);
        let loss = g.bce_with_logits(logits, targets.clone());
        g.backward(loss);
    });
    push(&mut out, case);

    // 3. One full FL round per protocol at several dataset scales
    //    (mirrors benches/fl_round.rs; dataset generation and the split
    //    are setup, not timed).
    for &scale in cfg.fl_scales() {
        let exp = Experiment::new(ExperimentConfig {
            dataset: Dataset::DblpLike,
            scale,
            num_clients: 4,
            rounds: 1,
            runs: 1,
            model: experiment_model(false),
            train: experiment_train(),
            seed: cfg.seed,
            ..Default::default()
        });
        let protocols: &[(&str, Framework)] = &[
            ("fedavg", Framework::FedAvg(FedAvg::vanilla())),
            ("fedda_restart", Framework::FedDa(FedDa::restart())),
            ("fedda_explore", Framework::FedDa(FedDa::explore())),
        ];
        for (label, framework) in protocols {
            let case = time_case(
                &format!("fl_round/{label}/s{scale}"),
                cfg.samples(),
                1,
                || {
                    black_box(exp.run_framework(framework));
                },
            );
            push(&mut out, case);
        }
    }

    // 4. The same round under the buffered-async runtime (K = 2,
    //    γ = 0.9) at the smallest FL scale — pins the event-queue
    //    overhead relative to the sync facade above.
    let async_exp = Experiment::new(ExperimentConfig {
        dataset: Dataset::DblpLike,
        scale: cfg.fl_scales()[0],
        num_clients: 4,
        rounds: 1,
        runs: 1,
        model: experiment_model(false),
        train: experiment_train(),
        seed: cfg.seed,
        runtime: RuntimeMode::Async(AsyncConfig { k: 2, gamma: 0.9 }),
        ..Default::default()
    });
    let protocols: &[(&str, Framework)] = &[
        ("fedavg", Framework::FedAvg(FedAvg::vanilla())),
        ("fedda_explore", Framework::FedDa(FedDa::explore())),
    ];
    for (label, framework) in protocols {
        let case = time_case(
            &format!("fl_round_async/{label}/s{}", cfg.fl_scales()[0]),
            cfg.samples(),
            1,
            || {
                black_box(async_exp.run_framework(framework));
            },
        );
        push(&mut out, case);
    }

    // 4b. The same sync round through each uplink codec at the smallest
    //     FL scale — pins the encode/decode overhead of the Compressor
    //     stage relative to the uncompressed `fl_round/fedavg` case above
    //     (ident isolates pure framing cost, the lossy codecs add their
    //     quantization/selection arithmetic).
    for compression in [
        Compression::Identity,
        Compression::QuantI8,
        Compression::QuantF16,
        Compression::TopK { frac: 0.25 },
    ] {
        let exp = Experiment::new(ExperimentConfig {
            dataset: Dataset::DblpLike,
            scale: cfg.fl_scales()[0],
            num_clients: 4,
            rounds: 1,
            runs: 1,
            model: experiment_model(false),
            train: experiment_train(),
            seed: cfg.seed,
            compression: Some(compression),
            ..Default::default()
        });
        let label = match compression {
            Compression::Identity => "ident",
            Compression::QuantI8 => "q8",
            Compression::QuantF16 => "f16",
            Compression::TopK { .. } => "topk",
        };
        let case = time_case(
            &format!("fl_round_compressed/{label}/s{}", cfg.fl_scales()[0]),
            cfg.samples(),
            1,
            || {
                black_box(exp.run_framework(&Framework::FedAvg(FedAvg::vanilla())));
            },
        );
        push(&mut out, case);
    }

    // 5. Large-federation throughput: one round over 10³–10⁴ registered
    //    clients with paper-style fraction sampling (C chosen so ~32
    //    clients dispatch per round), in both runtimes. The federation
    //    replicates a tiny partitioned dataset — per-client work stays
    //    constant while registration count scales, so these cases measure
    //    the runtime's scheduling/selection overhead. Throughput lands in
    //    the snapshot as clients_per_sec / rounds_per_sec.
    for &m in cfg.throughput_clients() {
        for runtime in ["sync", "async"] {
            let (mut sys, dispatched) = throughput_system(m, cfg.seed);
            let mut case = time_case(
                &format!("fl_throughput/{runtime}/m{m}"),
                cfg.samples(),
                1,
                || {
                    let result = match runtime {
                        "sync" => RoundDriver::new()
                            .run(&mut FedAvg::with_fractions(32.0 / m as f64, 1.0), &mut sys),
                        _ => AsyncDriver::new(AsyncConfig { k: 8, gamma: 0.9 })
                            .run(&mut FedAvg::with_fractions(32.0 / m as f64, 1.0), &mut sys),
                    };
                    black_box(result.expect("throughput run"));
                },
            );
            let sec = (case.median_ns.max(1)) as f64 / 1e9;
            case.clients_per_sec = Some(dispatched as f64 / sec);
            case.rounds_per_sec = Some(1.0 / sec);
            push(&mut out, case);
        }
    }

    out
}

/// Build the large-federation system for the throughput cases: a tiny
/// DBLP-like graph partitioned into 4 real clients, replicated cyclically
/// to `m` registered clients (each replica gets its own derived RNG seed
/// from `FlSystem::new`). Returns the system plus the per-round dispatch
/// count under `C = 32/m`.
fn throughput_system(m: usize, seed: u64) -> (FlSystem, usize) {
    let g = fedda::data::dblp_like(&fedda::data::PresetOptions {
        scale: 0.0008,
        seed,
        ..Default::default()
    })
    .graph;
    let mut rng = StdRng::seed_from_u64(seed);
    let split = split_edges(&g, 0.15, &mut rng);
    let pcfg = fedda::data::PartitionConfig::paper_defaults(4, g.schema().num_edge_types(), seed);
    let base = fedda::data::partition_non_iid(&split.train, &pcfg);
    let clients: Vec<fedda::data::ClientData> =
        (0..m).map(|i| base[i % base.len()].clone()).collect();
    let cfg = FlConfig {
        rounds: 1,
        model: fedda_hgn::HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 1,
            edge_emb_dim: 4,
            ..Default::default()
        },
        train: experiment_train(),
        eval_negatives: 2,
        seed,
        parallel: true,
        workers: Some(8),
        ..Default::default()
    };
    let dispatched = ((m as f64) * (32.0 / m as f64)).round().max(1.0) as usize;
    (
        FlSystem::new(&split.train, &split.test, clients, cfg),
        dispatched,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_and_are_labelled() {
        let smoke = SuiteConfig {
            smoke: true,
            seed: 0,
            samples: None,
            progress: false,
        };
        let full = SuiteConfig {
            smoke: false,
            ..smoke
        };
        assert_eq!(smoke.label(), "smoke");
        assert_eq!(full.label(), "full");
        assert!(smoke.fl_scales().len() < full.fl_scales().len());
        assert!(smoke.samples() < full.samples());
        assert_eq!(
            SuiteConfig {
                samples: Some(1),
                ..smoke
            }
            .samples(),
            1
        );
    }
}
