//! The model abstraction the FL layer trains: any encoder/decoder pair
//! that embeds a heterograph's nodes and scores candidate links.
//!
//! The paper notes its "proposed FedDA framework can fit any HGN model"
//! (§6.1); this trait is that seam. [`crate::SimpleHgn`] implements it, and
//! `fedda-fl` drives any other implementor without code changes — all FedDA
//! needs from a model is a structurally-stable [`ParamSet`] whose
//! disentangled units are tagged.

use crate::view::GraphView;
use fedda_hetgraph::LinkExample;
use fedda_tensor::{Graph, ParamSet, TapeBindings, Var};
use rand::RngCore;

/// A trainable link-prediction model over heterographs.
///
/// Implementations must be deterministic given their inputs (any training
/// randomness comes through the `train_rng` argument), and must build the
/// same parameter layout on every client so federated averaging is
/// meaningful.
pub trait LinkPredictor: Send + Sync {
    /// Embed every node of the view into `[num_nodes, out_dim]`.
    ///
    /// `train_rng = Some(_)` selects training mode, with the trainer's RNG
    /// for any draw a model makes while training; `None` is deterministic
    /// inference. [`crate::SimpleHgn`] encodes the same way in both modes and
    /// draws nothing.
    fn encode_nodes(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        view: &GraphView,
        train_rng: Option<&mut dyn RngCore>,
    ) -> Var;

    /// Score link examples against node embeddings; returns logits `[B, 1]`.
    fn score_examples(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        embeddings: Var,
        examples: &[LinkExample],
    ) -> Var;

    /// Whether graph views for this model should include self-loops.
    fn uses_self_loops(&self) -> bool;

    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Inference convenience: encode + score on a fresh tape, returning raw
    /// logits.
    fn logits(&self, params: &ParamSet, view: &GraphView, examples: &[LinkExample]) -> Vec<f32> {
        self.logits_on(&mut Graph::new(), params, view, examples)
    }

    /// [`LinkPredictor::logits`] on `graph`, which is cleared for
    /// inference first (no backward follows, so an encoder may drop what
    /// it has read): a reused tape gives the same bits as a fresh one.
    fn logits_on(
        &self,
        graph: &mut Graph,
        params: &ParamSet,
        view: &GraphView,
        examples: &[LinkExample],
    ) -> Vec<f32> {
        graph.clear_for_inference();
        let mut bindings = TapeBindings::new();
        let emb = self.encode_nodes(graph, &mut bindings, params, view, None);
        let scores = self.score_examples(graph, &mut bindings, params, emb, examples);
        graph.value(scores).as_slice().to_vec()
    }
}

impl LinkPredictor for crate::SimpleHgn {
    fn encode_nodes(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        view: &GraphView,
        _train_rng: Option<&mut dyn RngCore>,
    ) -> Var {
        self.encode(graph, bindings, params, view)
    }

    fn score_examples(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        embeddings: Var,
        examples: &[LinkExample],
    ) -> Var {
        self.score_links(graph, bindings, params, embeddings, examples)
    }

    fn uses_self_loops(&self) -> bool {
        self.config().add_self_loops
    }

    fn name(&self) -> &'static str {
        if self.config().edge_type_attention {
            "Simple-HGN"
        } else {
            "GAT"
        }
    }
}
