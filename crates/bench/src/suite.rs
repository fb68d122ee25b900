//! The fixed, seeded kernel suite behind `fedda perf`.
//!
//! How fast a federated run is, and how its time divides across layers,
//! is the repo benchmark's question (`benchmark/`, `BENCHMARK.json`). This
//! suite answers the one that benchmark's probes do not resolve per shape:
//! how fast is one kernel at a workload's real shape. Four families:
//!
//! 1. **`gemm/`** — the products an FL round actually issues
//!    ([`GEMM_SHAPES`]): tall-skinny `N×d · d×d` forward shapes, their
//!    `tn`/`nt` backward forms and the single-column attention
//!    projections;
//! 2. **`edge/`** — the fused per-edge tape ops, forward + backward, at
//!    the message-graph shapes of a real client ([`EDGE_SHAPES`]);
//! 3. **`codec/`** — each uplink codec's encode and the q8 arrival decode
//!    at the fleet model's size;
//! 4. **`optim/`** — one Adam step over the same model.
//!
//! Inputs, case names and the sample count (the schema's floor) are
//! fixed, so any two snapshots — and the two sides of `perf --ab` — cover
//! the same cases.

use crate::snapshot::{time_case, CaseResult, MIN_SAMPLES};
use fedda::fl::compress::decode_arrival;
use fedda::fl::runtime::Delivery;
use fedda::fl::{ClientReturn, Compressed, Compression, Delta, InFlight, UplinkCharge};
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

/// The per-edge shapes of one attention head, as `(nodes, message edges,
/// message types, head width)`, taken from the repo benchmark's clients
/// (self-loops included): the commonest `dblp_fedda` client under its
/// 8-wide heads, and `amazon_large`'s under the paper model's 16-wide.
pub const EDGE_SHAPES: &[(usize, usize, usize, usize)] =
    &[(694, 12_467, 6, 8), (2_525, 17_019, 3, 16)];

/// Random inputs of one [`EDGE_SHAPES`] entry and the forward + backward
/// pass of each fused edge op over them.
struct EdgeCase {
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
    fn new(rng: &mut StdRng, (nodes, edges, types, width): (usize, usize, usize, usize)) -> Self {
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
    fn softmax_fwd_bwd(&self) {
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
    fn aggregate_fwd_bwd(&self) {
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
struct CodecCase {
    reference: Arc<ParamSet>,
    updated: ParamSet,
    mask: Vec<bool>,
}

impl CodecCase {
    /// Seeded reference parameters and an update a few percent away, with
    /// a random gradient on it for the optimiser step.
    fn new(rng: &mut StdRng) -> Self {
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
        codec.build().compress(&Delta {
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
pub fn run_suite() -> Vec<CaseResult> {
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

    // 2. The fused edge kernels, forward + backward, at real client shapes.
    for &shape in EDGE_SHAPES {
        let (nodes, edges, _, width) = shape;
        let edge = EdgeCase::new(&mut rng, shape);
        let name = format!("edge/softmax/E{edges}xN{nodes}");
        out.push(time_case(&name, MIN_SAMPLES, 4, || edge.softmax_fwd_bwd()));
        let name = format!("edge/aggregate/E{edges}xN{nodes}xd{width}");
        out.push(time_case(&name, MIN_SAMPLES, 4, || {
            edge.aggregate_fwd_bwd()
        }));
    }

    // 3. The uplink report path at the fleet model's size: each codec's
    //    encode, the q8 arrival decode, and one optimiser step.
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
    let mut adam = Adam::new(5e-3);
    let name = format!("optim/adam_step/n{n}");
    out.push(time_case(&name, MIN_SAMPLES, 8, || {
        codec_case.adam_step(&mut adam)
    }));

    out
}
