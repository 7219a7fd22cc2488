//! Transformer architecture configurations (Table 3 of the paper).

/// Dimensions of one transformer block plus the sequence length it is
/// evaluated at — exactly the columns of the paper's Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Architecture name, e.g. `"BERT-Base"`.
    pub name: String,
    /// Hidden size `d_model`.
    pub d_model: usize,
    /// Feed-forward intermediate size `d_ff`.
    pub d_ff: usize,
    /// Number of attention heads `h`.
    pub n_heads: usize,
    /// Sequence length `S`.
    pub seq_len: usize,
    /// Number of encoder/decoder blocks in the full model.
    pub n_layers: usize,
}

impl TransformerConfig {
    /// BERT-Base: 768 / 3072 / 12 heads, S = 128, L = 12.
    pub fn bert_base() -> Self {
        TransformerConfig {
            name: "BERT-Base".into(),
            d_model: 768,
            d_ff: 3072,
            n_heads: 12,
            seq_len: 128,
            n_layers: 12,
        }
    }

    /// BERT-Large: 1024 / 4096 / 16 heads, S = 128, L = 24.
    pub fn bert_large() -> Self {
        TransformerConfig {
            name: "BERT-Large".into(),
            d_model: 1024,
            d_ff: 4096,
            n_heads: 16,
            seq_len: 128,
            n_layers: 24,
        }
    }

    /// T5-Base: 768 / 3072 / 12 heads, S = 512, L = 12.
    pub fn t5_base() -> Self {
        TransformerConfig {
            name: "T5-Base".into(),
            d_model: 768,
            d_ff: 3072,
            n_heads: 12,
            seq_len: 512,
            n_layers: 12,
        }
    }

    /// T5-Large: 1024 / 4096 / 16 heads, S = 512, L = 24.
    pub fn t5_large() -> Self {
        TransformerConfig {
            name: "T5-Large".into(),
            d_model: 1024,
            d_ff: 4096,
            n_heads: 16,
            seq_len: 512,
            n_layers: 24,
        }
    }

    /// OPT-125M ("Base"): 768 / 3072 / 12 heads, S = 2048, L = 12.
    pub fn opt_125m() -> Self {
        TransformerConfig {
            name: "OPT-125M".into(),
            d_model: 768,
            d_ff: 3072,
            n_heads: 12,
            seq_len: 2048,
            n_layers: 12,
        }
    }

    /// OPT-350M ("Large"): 1024 / 4096 / 16 heads, S = 2048, L = 24.
    pub fn opt_350m() -> Self {
        TransformerConfig {
            name: "OPT-350M".into(),
            d_model: 1024,
            d_ff: 4096,
            n_heads: 16,
            seq_len: 2048,
            n_layers: 24,
        }
    }

    /// All six Table-3 architectures, in figure order (Figs. 10–15).
    pub fn all() -> Vec<TransformerConfig> {
        vec![
            Self::bert_base(),
            Self::bert_large(),
            Self::t5_base(),
            Self::t5_large(),
            Self::opt_125m(),
            Self::opt_350m(),
        ]
    }

    /// Head dimension `d_model / h`.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads`.
    pub fn d_head(&self) -> usize {
        assert_eq!(
            self.d_model % self.n_heads,
            0,
            "d_model not divisible by heads"
        );
        self.d_model / self.n_heads
    }

    /// Trainable parameters in one block (attention + FFN + 2 LayerNorms).
    pub fn params_per_block(&self) -> usize {
        let attn = 4 * (self.d_model * self.d_model + self.d_model);
        let ffn = 2 * self.d_model * self.d_ff + self.d_ff + self.d_model;
        let ln = 4 * self.d_model;
        attn + ffn + ln
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_dims() {
        let b = TransformerConfig::bert_base();
        assert_eq!(
            (b.d_model, b.d_ff, b.n_heads, b.seq_len),
            (768, 3072, 12, 128)
        );
        let l = TransformerConfig::bert_large();
        assert_eq!(
            (l.d_model, l.d_ff, l.n_heads, l.seq_len),
            (1024, 4096, 16, 128)
        );
        let t = TransformerConfig::t5_base();
        assert_eq!(t.seq_len, 512);
        let o = TransformerConfig::opt_350m();
        assert_eq!(o.seq_len, 2048);
    }

    #[test]
    fn bert_base_param_count_is_plausible() {
        // BERT-Base encoder blocks hold ≈ 85M of the 110M params: 12 blocks
        // × ≈7.1M.
        let c = TransformerConfig::bert_base();
        let per_block = c.params_per_block();
        assert!((7.0e6..7.2e6).contains(&(per_block as f64)), "{per_block}");
    }

    #[test]
    fn head_dim() {
        assert_eq!(TransformerConfig::bert_base().d_head(), 64);
        assert_eq!(TransformerConfig::bert_large().d_head(), 64);
    }
}
