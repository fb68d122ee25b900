//! Model configuration for Simple-HGN and its GAT ablation.

/// Link-score decoder choice (Simple-HGN §5.1.1 uses dot product or
/// DistMult depending on the dataset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decoder {
    /// `score(u, v) = s * (o_u · o_v) + b` — with L2-normalised outputs this
    /// is scaled cosine similarity. The learnable scale/bias map the
    /// `[-1, 1]` cosine range onto useful logit magnitudes.
    DotProduct,
    /// `score(u, v) = s * Σ_d o_u[d] * r_t[d] * o_v[d] + b` with a learnable
    /// relation vector `r_t` per edge type (disentangled units).
    DistMult,
}

/// Hyper-parameters of the Simple-HGN encoder + decoder.
///
/// The paper's default is a three-layer, three-head model (§6.1); the
/// reproduction defaults are smaller so CPU experiments stay fast, and the
/// benches that regenerate the paper's tables set the paper values
/// explicitly. The pre-activation residuals (Eq. 3) and the L2-normalised
/// outputs are always on, and the encoder computes the same function in
/// training and in inference.
#[derive(Clone, Debug, PartialEq)]
pub struct HgnConfig {
    /// Hidden width per attention head.
    pub hidden_dim: usize,
    /// Number of attention layers.
    pub num_layers: usize,
    /// Number of attention heads per layer.
    pub num_heads: usize,
    /// Width of the learnable edge-type embeddings.
    pub edge_emb_dim: usize,
    /// Include learnable edge-type embeddings in attention (Eq. 2). With
    /// this off the encoder degrades to multi-head GAT — the paper's
    /// starting point and our ablation baseline.
    pub edge_type_attention: bool,
    /// Add self-loop messages with a dedicated pseudo edge type.
    pub add_self_loops: bool,
    /// Attention-residual blending `β ∈ [0, 1)`: layer `l`'s attention is
    /// `(1-β)·softmax(score) + β·α^{(l-1)}` (the released Simple-HGN's
    /// fourth trick; `0` disables).
    pub attn_residual: f32,
    /// Link-score decoder.
    pub decoder: Decoder,
}

impl Default for HgnConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 16,
            num_layers: 2,
            num_heads: 2,
            edge_emb_dim: 8,
            edge_type_attention: true,
            add_self_loops: true,
            attn_residual: 0.0,
            decoder: Decoder::DotProduct,
        }
    }
}

impl HgnConfig {
    /// The paper's Simple-HGN configuration: 3 layers, 3 heads.
    pub fn paper_default() -> Self {
        Self {
            hidden_dim: 16,
            num_layers: 3,
            num_heads: 3,
            ..Self::default()
        }
    }

    /// Vanilla GAT ablation: no edge-type information in attention, dot
    /// decoder.
    pub fn gat(&self) -> Self {
        Self {
            edge_type_attention: false,
            decoder: Decoder::DotProduct,
            ..self.clone()
        }
    }

    /// Output embedding width (`heads * hidden` — heads are concatenated).
    pub fn out_dim(&self) -> usize {
        self.num_heads * self.hidden_dim
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.hidden_dim == 0 || self.num_layers == 0 || self.num_heads == 0 {
            return Err("hidden_dim, num_layers and num_heads must be positive".into());
        }
        if self.edge_emb_dim == 0 && self.edge_type_attention {
            return Err("edge_emb_dim must be positive when edge_type_attention is on".into());
        }
        if !(0.0..1.0).contains(&self.attn_residual) {
            return Err(format!(
                "attn_residual must be in [0,1), got {}",
                self.attn_residual
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(HgnConfig::default().validate().is_ok());
        assert!(HgnConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn paper_default_is_three_by_three() {
        let c = HgnConfig::paper_default();
        assert_eq!(c.num_layers, 3);
        assert_eq!(c.num_heads, 3);
        assert_eq!(c.out_dim(), 48);
    }

    #[test]
    fn gat_ablation_disables_edge_attention() {
        let c = HgnConfig::default().gat();
        assert!(!c.edge_type_attention);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = HgnConfig {
            num_heads: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let mut c = HgnConfig {
            edge_emb_dim: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.edge_type_attention = false;
        assert!(c.validate().is_ok());
    }
}
