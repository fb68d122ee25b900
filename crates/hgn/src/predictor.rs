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
/// Implementations must be deterministic given their inputs (any dropout
/// randomness comes through the `dropout_rng` argument), and must build the
/// same parameter layout on every client so federated averaging is
/// meaningful.
pub trait LinkPredictor: Send + Sync {
    /// Embed every node of the view into `[num_nodes, out_dim]`.
    ///
    /// `dropout_rng = Some(_)` selects training mode (feature dropout where
    /// the model supports it); `None` is deterministic inference.
    fn encode_nodes(
        &self,
        graph: &mut Graph,
        bindings: &mut TapeBindings,
        params: &ParamSet,
        view: &GraphView,
        dropout_rng: Option<&mut dyn RngCore>,
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

    /// Feature-dropout probability during training (0 disables).
    fn dropout_prob(&self) -> f32 {
        0.0
    }

    /// Model name for reports.
    fn name(&self) -> &'static str;

    /// Inference convenience: encode + score on a fresh tape, returning raw
    /// logits.
    fn logits(&self, params: &ParamSet, view: &GraphView, examples: &[LinkExample]) -> Vec<f32> {
        let mut graph = Graph::new();
        let mut bindings = TapeBindings::new();
        let emb = self.encode_nodes(&mut graph, &mut bindings, params, view, None);
        let scores = self.score_examples(&mut graph, &mut bindings, params, emb, examples);
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
        dropout_rng: Option<&mut dyn RngCore>,
    ) -> Var {
        match dropout_rng {
            Some(rng) => self.encode(graph, bindings, params, view, Some(rng)),
            None => self.encode::<dyn RngCore>(graph, bindings, params, view, None),
        }
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

    fn dropout_prob(&self) -> f32 {
        self.config().dropout
    }

    fn name(&self) -> &'static str {
        if self.config().edge_type_attention {
            "Simple-HGN"
        } else {
            "GAT"
        }
    }
}
