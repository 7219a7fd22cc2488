//! BERT-style pretraining batch construction.

use crate::SyntheticLanguage;
use pipefisher_nn::{PreTrainingBatch, IGNORE_INDEX};
use rand::Rng;

/// Reserved special-token ids.
pub mod special_tokens {
    /// Padding (unused with fixed-length sampling but reserved).
    pub const PAD: usize = 0;
    /// Classification token starting every sequence.
    pub const CLS: usize = 1;
    /// Separator between sentence A and B and at sequence end.
    pub const SEP: usize = 2;
    /// Mask token for MLM.
    pub const MASK: usize = 3;
    /// Number of reserved ids (regular tokens start here).
    pub const COUNT: usize = 4;
}

/// Share of regular tokens BERT selects as MLM targets.
const MASK_PROB: f64 = 0.15;

/// Samples fixed-length `[CLS] A… [SEP] B… [SEP]` sequences with BERT's
/// masking (15 % of tokens: 80 % → `[MASK]`, 10 % → random, 10 % → kept)
/// and 50 % random next-sentence pairs.
#[derive(Debug, Clone)]
pub struct BatchSampler {
    language: SyntheticLanguage,
    seq_len: usize,
}

impl BatchSampler {
    /// Creates a sampler emitting sequences of `seq_len` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len < 8` (too short to host both sentences + specials).
    pub fn new(language: SyntheticLanguage, seq_len: usize) -> Self {
        assert!(seq_len >= 8, "seq_len must be at least 8, got {seq_len}");
        BatchSampler { language, seq_len }
    }

    /// Samples a batch of `batch_size` sequences.
    pub fn sample(&self, batch_size: usize, rng: &mut impl Rng) -> PreTrainingBatch {
        let s = self.seq_len;
        // Layout: [CLS] a…a [SEP] b…b [SEP]; split remaining tokens evenly.
        let content = s - 3;
        let len_a = content / 2;
        let len_b = content - len_a;
        let mut token_ids = Vec::with_capacity(batch_size * s);
        let mut segment_ids = Vec::with_capacity(batch_size * s);
        let mut mlm_targets = Vec::with_capacity(batch_size * s);
        let mut nsp_targets = Vec::with_capacity(batch_size);
        for _ in 0..batch_size {
            let (a, b, is_random) = self.language.sentence_pair(len_a, len_b, rng);
            nsp_targets.push(is_random as i64);
            let mut seq = Vec::with_capacity(s);
            let mut segs = Vec::with_capacity(s);
            seq.push(special_tokens::CLS);
            segs.push(0);
            for &t in &a {
                seq.push(t);
                segs.push(0);
            }
            seq.push(special_tokens::SEP);
            segs.push(0);
            for &t in &b {
                seq.push(t);
                segs.push(1);
            }
            seq.push(special_tokens::SEP);
            segs.push(1);
            debug_assert_eq!(seq.len(), s);
            // Masking.
            for (i, tok) in seq.iter_mut().enumerate() {
                let is_special = *tok < special_tokens::COUNT;
                if is_special || !rng.gen_bool(MASK_PROB) {
                    mlm_targets.push(IGNORE_INDEX);
                    continue;
                }
                mlm_targets.push(*tok as i64);
                let r: f64 = rng.gen();
                if r < 0.8 {
                    *tok = special_tokens::MASK;
                } else if r < 0.9 {
                    *tok = rng.gen_range(special_tokens::COUNT..self.language.vocab_size());
                } // else keep
                let _ = i;
            }
            token_ids.extend_from_slice(&seq);
            segment_ids.extend_from_slice(&segs);
        }
        PreTrainingBatch {
            token_ids,
            segment_ids,
            mlm_targets,
            nsp_targets,
            seq: s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler() -> BatchSampler {
        BatchSampler::new(SyntheticLanguage::new(68, 4, 4, 7), 16)
    }

    #[test]
    fn batch_shapes() {
        let s = sampler();
        let mut rng = StdRng::seed_from_u64(1);
        let b = s.sample(8, &mut rng);
        assert_eq!(b.token_ids.len(), 8 * 16);
        assert_eq!(b.segment_ids.len(), 8 * 16);
        assert_eq!(b.mlm_targets.len(), 8 * 16);
        assert_eq!(b.nsp_targets.len(), 8);
        assert_eq!(b.batch_size(), 8);
    }

    #[test]
    fn framing_is_correct() {
        let s = sampler();
        let mut rng = StdRng::seed_from_u64(2);
        let b = s.sample(2, &mut rng);
        for seq in 0..2 {
            let toks = &b.token_ids[seq * 16..(seq + 1) * 16];
            let segs = &b.segment_ids[seq * 16..(seq + 1) * 16];
            assert_eq!(toks[0], special_tokens::CLS);
            assert_eq!(toks[15], special_tokens::SEP);
            assert_eq!(segs[0], 0);
            assert_eq!(segs[15], 1);
            // Segment boundary exists and is monotone 0→1.
            assert!(segs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn mask_rate_is_near_15_percent() {
        let s = sampler();
        let mut rng = StdRng::seed_from_u64(3);
        let b = s.sample(200, &mut rng);
        let masked = b.mlm_targets.iter().filter(|&&t| t != IGNORE_INDEX).count();
        let maskable = b
            .token_ids
            .len()
            // 3 specials per sequence are never masked.
            - 3 * b.batch_size();
        let rate = masked as f64 / maskable as f64;
        assert!((rate - 0.15).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn masked_positions_mostly_show_mask_token() {
        let s = sampler();
        let mut rng = StdRng::seed_from_u64(4);
        let b = s.sample(300, &mut rng);
        let mut mask_tok = 0;
        let mut total = 0;
        for (i, &t) in b.mlm_targets.iter().enumerate() {
            if t == IGNORE_INDEX {
                continue;
            }
            total += 1;
            if b.token_ids[i] == special_tokens::MASK {
                mask_tok += 1;
            }
        }
        let frac = mask_tok as f64 / total as f64;
        assert!((frac - 0.8).abs() < 0.05, "mask fraction {frac}");
    }

    #[test]
    fn nsp_labels_are_balanced() {
        let s = sampler();
        let mut rng = StdRng::seed_from_u64(5);
        let b = s.sample(400, &mut rng);
        let pos: i64 = b.nsp_targets.iter().sum();
        let rate = pos as f64 / 400.0;
        assert!((rate - 0.5).abs() < 0.08, "nsp positive rate {rate}");
    }

    #[test]
    fn specials_never_have_mlm_targets() {
        let s = sampler();
        let mut rng = StdRng::seed_from_u64(6);
        let b = s.sample(50, &mut rng);
        for (i, &t) in b.mlm_targets.iter().enumerate() {
            if t != IGNORE_INDEX {
                // Target is always a regular token.
                assert!(t as usize >= special_tokens::COUNT);
            }
            // CLS/SEP positions are ignored: position 0 and 15.
            if i % 16 == 0 || i % 16 == 15 {
                assert_eq!(t, IGNORE_INDEX);
            }
        }
    }
}
