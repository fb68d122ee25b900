//! The fixed, seeded kernel suite behind `fedda perf`.
//!
//! How fast a federated run is, and how its time divides across layers,
//! is the repo benchmark's question (`benchmark/`, `BENCHMARK.json`). This
//! suite answers the one that benchmark's probes do not resolve per shape:
//! how fast is one kernel at a workload's real shape. Seven families:
//!
//! 1. **`gemm/`** — the products an FL round actually issues
//!    ([`GEMM_SHAPES`]): tall-skinny `N×d · d×d` forward shapes, their
//!    `tn`/`nt` backward forms and the single-column attention
//!    projections;
//! 2. **`edge/`** — the tape ops that walk a message graph, forward +
//!    backward, at the shapes of a real client's attention layer
//!    ([`EDGE_SHAPES`]): one head's `edge_softmax`, and the layer's
//!    `aggregate_residual_elu` (every head's aggregation, the residual
//!    product and the ELU);
//! 3. **`loss/`, `decoder/`** — the rest of a training step's non-GEMM
//!    tail, forward + backward: the BCE loss and the fused dot-product
//!    decoder at real batch shapes ([`TAIL_BATCH`], [`DECODER_SHAPE`]);
//! 4. **`codec/`** — each uplink codec's encode and the q8 arrival decode
//!    at the fleet model's size;
//! 5. **`fl/fold/`** — Eq. 6 folding one such report into its `f64` sums,
//!    stored (`f32`) and decoded unit by unit as it is read (`q8`);
//! 6. **`optim/`** — one Adam step over the same model;
//! 7. **`sample/`** — the negative sampler: one epoch's positives of a
//!    `dblp_fedda` client ([`SAMPLE_SCALE`]), each paired with one corrupted
//!    negative through the client's rejection index.
//!
//! Inputs, case names and the sample count (the schema's floor) are
//! fixed, so any two snapshots — and the two sides of `perf --ab` — cover
//! the same cases.

use crate::snapshot::{time_case, CaseResult, MIN_SAMPLES};
use fedda::data::{partition_non_iid, PartitionConfig};
use fedda::fl::compress::decode_arrival;
use fedda::fl::runtime::Delivery;
use fedda::fl::{
    ClientReturn, Compressed, Compression, Delta, FlConfig, FlSystem, InFlight, UplinkCharge,
    WeightedReturn,
};
use fedda::hetgraph::{HeteroGraph, LinkExample, LinkSampler};
use fedda_hgn::SimpleHgn;
use fedda_tensor::{Adam, Graph, Matrix, ParamSet, Segments, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

/// Seed of every generated input.
const SUITE_SEED: u64 = 0;

/// The GEMM shape histogram of one federated round, as
/// `(layout, m, k, n)` with an `m × n` output over a shared dimension
/// `k`, taken from the repo benchmark's workloads: `amazon_large`'s
/// 2 525-node client graphs under the paper model (16 × 3 heads) — the
/// layer product and its two backward forms, then the attention
/// projection (a matvec) and its two — and the fleet's 128-wide model on
/// 101-node clients.
pub(crate) const GEMM_SHAPES: &[(&str, usize, usize, usize)] = &[
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
fn gemm_case(
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

/// The message graph of one attention layer, as `(nodes, message edges,
/// message types, heads, head width)`, taken from the repo benchmark's
/// clients (self-loops included) under each workload's model: the
/// commonest `dblp_fedda` client (2 heads of 8), `amazon_large`'s (the
/// paper model, 3 heads of 16: its `[2525, 48]` output is the ELU a step
/// takes there) and the commonest `fleet_q8_*` client (4 heads of 32) —
/// one case per width the edge kernel has an instance for.
pub(crate) const EDGE_SHAPES: &[(usize, usize, usize, usize, usize)] = &[
    (694, 12_467, 6, 2, 8),
    (2_525, 17_019, 3, 3, 16),
    (101, 1_465, 6, 4, 32),
];

/// Random inputs of one [`EDGE_SHAPES`] entry and the forward + backward
/// pass of each edge op over them.
struct EdgeCase {
    src: Arc<Vec<u32>>,
    dst: Arc<Vec<u32>>,
    etype: Arc<Vec<u32>>,
    segments: Arc<Segments>,
    s_src: Matrix,
    s_dst: Matrix,
    per_type: Matrix,
    /// Each head's `(hw, alpha)`.
    heads: Vec<(Matrix, Matrix)>,
    /// The layer's input `h` and residual weight `W_res`.
    h: Matrix,
    w_res: Matrix,
}

impl EdgeCase {
    /// Uniformly random endpoints, types, scores and features.
    fn new(
        rng: &mut StdRng,
        (nodes, edges, types, heads, width): (usize, usize, usize, usize, usize),
    ) -> Self {
        let mut pick =
            |hi: usize| -> Vec<u32> { (0..edges).map(|_| rng.gen_range(0..hi as u32)).collect() };
        let (src, dst, etype) = (pick(nodes), pick(nodes), pick(types));
        let model = heads * width;
        Self {
            segments: Arc::new(Segments::new(dst.clone(), nodes)),
            src: Arc::new(src),
            dst: Arc::new(dst),
            etype: Arc::new(etype),
            s_src: rand_matrix(rng, nodes, 1),
            s_dst: rand_matrix(rng, nodes, 1),
            per_type: rand_matrix(rng, types, 1),
            heads: (0..heads)
                .map(|_| (rand_matrix(rng, nodes, width), rand_matrix(rng, edges, 1)))
                .collect(),
            h: rand_matrix(rng, nodes, model),
            w_res: rand_matrix(rng, model, model),
        }
    }

    /// `edge_softmax` and its backward under a `Σ α²` loss, on `g`.
    fn softmax_fwd_bwd(&self, g: &mut Graph) {
        g.clear();
        let s_src = g.leaf(&self.s_src);
        let s_dst = g.leaf(&self.s_dst);
        let per_type = g.leaf(&self.per_type);
        let alpha = g.edge_softmax(
            s_src,
            s_dst,
            Some(per_type),
            self.src.clone(),
            self.etype.clone(),
            self.segments.clone(),
            0.2,
        );
        backward_sum_sq(g, alpha);
    }

    /// `aggregate_residual_elu` and its backward under a `Σ out²` loss,
    /// on `g`.
    fn epilogue_fwd_bwd(&self, g: &mut Graph) {
        g.clear();
        let (hws, alphas): (Vec<Var>, Vec<Var>) = (self.heads.iter())
            .map(|(hw, a)| (g.leaf(hw), g.leaf(a)))
            .unzip();
        let (h, w_res) = (g.leaf(&self.h), g.leaf(&self.w_res));
        let (src, dst) = (self.src.clone(), self.dst.clone());
        let out = g.aggregate_residual_elu(&hws, &alphas, src, dst, h, w_res);
        backward_sum_sq(g, out);
    }
}

/// Logits in the BCE case and pairs in the decoder case.
pub(crate) const TAIL_BATCH: usize = 4_096;

/// The decoder case's embedding matrix: a `dblp_fedda` client's 694 nodes
/// at the default 16-wide output.
pub(crate) const DECODER_SHAPE: (usize, usize) = (694, 16);

/// `bce_with_logits` and its backward, on `g`.
fn bce_fwd_bwd(g: &mut Graph, logits: &Matrix, targets: &Arc<Vec<f32>>) {
    g.clear();
    let x = g.leaf(logits);
    let loss = g.bce_with_logits(x, targets.clone());
    g.backward(loss);
    black_box(g.len());
}

/// `pair_dot` and its backward under a `Σ out²` loss, on `g`.
fn pair_dot_fwd_bwd(g: &mut Graph, h: &Matrix, src: &Arc<Vec<u32>>, dst: &Arc<Vec<u32>>) {
    g.clear();
    let hv = g.leaf(h);
    let out = g.pair_dot(hv, src.clone(), dst.clone());
    backward_sum_sq(g, out);
}

/// The DBLP-like graph the codec and fold cases take their schema from.
fn codec_graph() -> HeteroGraph {
    fedda::data::dblp_like(&fedda::data::PresetOptions {
        scale: 0.0008,
        seed: 1,
    })
    .graph
}

/// One fleet-sized client report on the uplink path: the repo
/// benchmark's `fleet_q8_*` model (32 × 4 heads, 2 layers — 87 554 scalars
/// in 62 units on the DBLP-like schema), a locally-moved copy of it, and
/// the all-units mask FedAvg requests.
struct CodecCase {
    reference: Arc<ParamSet>,
    updated: ParamSet,
    mask: Vec<bool>,
}

impl CodecCase {
    /// Seeded reference parameters and an update a few percent away, with
    /// a random gradient on it for the optimiser step.
    fn new(rng: &mut StdRng) -> Self {
        let schema = codec_graph().schema().clone();
        let model = fedda_hgn::HgnConfig {
            hidden_dim: 32,
            num_heads: 4,
            num_layers: 2,
            edge_emb_dim: 32,
            ..Default::default()
        };
        let (_, reference) = SimpleHgn::init_params(&schema, &model, rng);
        let mut updated = reference.clone();
        for id in reference.ids() {
            let unit = updated.range(id);
            let (values, grads) = updated.values_and_grads_mut();
            for w in &mut values[unit.clone()] {
                *w += rng.gen_range(-0.02f32..0.02);
            }
            for g in &mut grads[unit] {
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
    fn num_scalars(&self) -> usize {
        self.reference.num_scalars()
    }

    /// Mask-then-compress the report under `codec`.
    fn encode(&self, codec: Compression) -> Compressed {
        codec.compress(&Delta {
            updated: &self.updated,
            reference: &self.reference,
            mask: &self.mask,
        })
    }

    /// The report's delivery as it reaches the server, minus the payload
    /// [`CodecCase::decode`] puts in.
    fn delivery(&self) -> Delivery {
        Delivery {
            client: 0,
            dispatch_pos: 0,
            dispatch_round: 0,
            ret: ClientReturn {
                client: 0,
                params: self.updated.clone(),
                unit_delta: Vec::new(),
                encoded: None,
            },
            mask: self.mask.clone(),
            charge: UplinkCharge::default(),
            payload: None,
        }
    }

    /// One server arrival: hand the delivery a copy of `report` (the decode
    /// consumes it; the copy is ~1 byte per scalar under q8) and decode it.
    fn decode(&self, delivery: &mut Delivery, report: &Compressed) {
        delivery.payload = Some(InFlight {
            report: report.clone(),
            reference: Arc::clone(&self.reference),
        });
        decode_arrival(delivery);
    }

    /// One Adam step over the report's units under their fixed gradient.
    fn adam_step(&mut self, adam: &mut Adam) {
        adam.step(&mut self.updated);
    }

    /// The report as Eq. 6 reads it: its values (`None`), or what crossed
    /// the wire under `codec` — the payload and its reference, no values.
    fn report(&self, codec: Option<Compression>) -> ClientReturn {
        let (params, encoded) = match codec {
            None => {
                let mut params = self.updated.clone();
                params.release_grads();
                (params, None)
            }
            Some(codec) => {
                let report = self.encode(codec);
                let reference = Arc::clone(&self.reference);
                (ParamSet::new(), Some(InFlight { report, reference }))
            }
        };
        ClientReturn {
            client: 0,
            params,
            unit_delta: Vec::new(),
            encoded,
        }
    }
}

/// A one-client federation on the codec case's graph whose global model is
/// the codec case's reference: what `FlSystem::aggregate_weighted` needs to
/// fold a fleet-sized report (its weights and its layout).
fn fold_system(reference: &ParamSet) -> FlSystem {
    let graph = codec_graph();
    let config = PartitionConfig::paper_defaults(1, graph.schema().num_edge_types(), 1);
    let clients = partition_non_iid(&graph, &config);
    let cfg = FlConfig {
        workers: Some(1),
        ..FlConfig::default()
    };
    let mut system = FlSystem::new(&graph, &graph, clients, cfg);
    system.global = reference.clone();
    system
}

/// Scale of the sampler case's graph: the `dblp_fedda` workload's
/// generator (`dblp_like`, seed 1), partitioned non-IID into one client with
/// the paper's defaults.
pub(crate) const SAMPLE_SCALE: f64 = 0.006;

/// The sampler case's client: its graph and training positives (the edges
/// of its specialised types, as `FlSystem` builds them).
fn sample_client() -> (HeteroGraph, Vec<LinkExample>) {
    let graph = fedda::data::dblp_like(&fedda::data::PresetOptions {
        scale: SAMPLE_SCALE,
        seed: 1,
    })
    .graph;
    let config = PartitionConfig::paper_defaults(1, graph.schema().num_edge_types(), 1);
    let client = partition_non_iid(&graph, &config).swap_remove(0);
    let positives = LinkSampler::new(&client.graph).positives_of_types(&client.specialized);
    (client.graph, positives)
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

/// A tape case: [`time_case`] over a `Graph` of its own, kept and cleared
/// between calls as a worker slot keeps its tape (the warm-up call grows
/// its arenas, no sample times that growth) and freed when the case ends,
/// so no later case runs beside its memory.
fn time_tape_case(name: &str, iters: u64, mut f: impl FnMut(&mut Graph)) -> CaseResult {
    let mut g = Graph::new();
    time_case(name, MIN_SAMPLES, iters, || f(&mut g))
}

/// Run the whole suite and return per-case results in suite order.
pub(crate) fn run_suite() -> Vec<CaseResult> {
    let mut out = Vec::new();

    // 1. The GEMM shapes of a real round, every layout.
    let mut rng = StdRng::seed_from_u64(SUITE_SEED);
    for &(layout, m, k, n) in GEMM_SHAPES {
        let (a, b, kernel) = gemm_case(&mut rng, layout, (m, k, n));
        // Enough iterations that one sample is about a millisecond.
        let iters = (4_000_000 / (m * k * n)).max(1) as u64;
        let name = format!("gemm/{layout}/{m}x{k}x{n}");
        out.push(time_case(&name, MIN_SAMPLES, iters, || {
            black_box(kernel(&a, &b));
        }));
    }

    // 2. The edge ops, forward + backward, at real client shapes.
    for &shape in EDGE_SHAPES {
        let (nodes, edges, _, heads, width) = shape;
        let edge = EdgeCase::new(&mut rng, shape);
        let name = format!("edge/softmax/E{edges}xN{nodes}");
        out.push(time_tape_case(&name, 4, |g| edge.softmax_fwd_bwd(g)));
        let name = format!("edge/aggregate_residual_elu/E{edges}xN{nodes}xH{heads}xd{width}");
        out.push(time_tape_case(&name, 4, |g| edge.epilogue_fwd_bwd(g)));
    }

    // 3. The rest of a step's non-GEMM tail, forward + backward.
    let (batch, (nodes, width)) = (TAIL_BATCH, DECODER_SHAPE);
    let logits = rand_matrix(&mut rng, batch, 1).scale(4.0);
    let targets = Arc::new((0..batch).map(|i| (i % 2) as f32).collect());
    let name = format!("loss/bce/B{batch}");
    out.push(time_tape_case(&name, 32, |g| {
        bce_fwd_bwd(g, &logits, &targets)
    }));
    let h = rand_matrix(&mut rng, nodes, width);
    let mut pick = || -> Arc<Vec<u32>> {
        Arc::new((0..batch).map(|_| rng.gen_range(0..nodes as u32)).collect())
    };
    let (src, dst) = (pick(), pick());
    let name = format!("decoder/pair_dot/B{batch}xN{nodes}xd{width}");
    out.push(time_tape_case(&name, 16, |g| {
        pair_dot_fwd_bwd(g, &h, &src, &dst)
    }));

    // 4. The uplink report path at the fleet model's size: each codec's
    //    encode and the q8 arrival decode.
    let mut codec_case = CodecCase::new(&mut rng);
    let n = codec_case.num_scalars();
    for (label, codec) in [
        ("q8", Compression::QuantI8),
        ("f16", Compression::QuantF16),
        ("topk", Compression::TopK { frac: 0.25 }),
    ] {
        let name = format!("codec/{label}/encode/n{n}");
        out.push(time_case(&name, MIN_SAMPLES, 8, || {
            black_box(codec_case.encode(codec));
        }));
    }
    let report = codec_case.encode(Compression::QuantI8);
    let mut delivery = codec_case.delivery();
    let name = format!("codec/q8/decode/n{n}");
    out.push(time_case(&name, MIN_SAMPLES, 8, || {
        codec_case.decode(&mut delivery, &report);
        black_box(&delivery.ret.unit_delta);
    }));

    // 5. Eq. 6 over one such report: its stored values, then its q8
    //    encoding decoded unit by unit as the fold reads it.
    let mut system = fold_system(&codec_case.reference);
    for (label, codec) in [("f32", None), ("q8", Some(Compression::QuantI8))] {
        let ret = codec_case.report(codec);
        let contribution = [WeightedReturn {
            ret: &ret,
            mask: &codec_case.mask,
            scale: 1.0,
        }];
        let name = format!("fl/fold/{label}/n{n}");
        out.push(time_case(&name, MIN_SAMPLES, 8, || {
            system.aggregate_weighted(&contribution);
        }));
    }

    // 6. One optimiser step over the same model.
    let mut adam = Adam::new(5e-3);
    let name = format!("optim/adam_step/n{n}");
    out.push(time_case(&name, MIN_SAMPLES, 8, || {
        codec_case.adam_step(&mut adam)
    }));

    // 7. One epoch's negatives of a `dblp_fedda` client, one per positive
    //    (the training default), through an index built once.
    let (graph, positives) = sample_client();
    let sampler = LinkSampler::new(&graph);
    let name = format!(
        "sample/negatives/{}xN{}",
        positives.len(),
        graph.num_nodes()
    );
    out.push(time_case(&name, MIN_SAMPLES, 8, || {
        black_box(sampler.with_negatives(&positives, 1, &mut rng));
    }));

    out
}
