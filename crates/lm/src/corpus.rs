//! Synthetic language with Markov-bigram structure and topic clusters.

use rand::Rng;

/// A synthetic language for masked-LM + NSP pretraining.
///
/// The regular vocabulary is split into `n_topics` equal clusters. Each
/// topic carries a sparse Markov bigram chain over its cluster: every token
/// has `branching` likely successors with a fixed decaying profile. A
/// sentence is a random walk in one topic's chain; a *consecutive* sentence
/// pair shares the topic, a *random* pair does not (with high probability).
///
/// * **MLM learnability**: masked tokens are predictable from neighbours
///   through the chain (conditional entropy ≈ `ln(branching)` ≪ `ln V`).
/// * **NSP learnability**: same-topic pairs share a vocabulary cluster.
#[derive(Debug, Clone)]
pub struct SyntheticLanguage {
    vocab_size: usize,
    n_topics: usize,
    branching: usize,
    first_regular: usize,
    seed: u64,
}

impl SyntheticLanguage {
    /// Creates a language over `vocab_size` tokens (the first
    /// [`crate::special_tokens::COUNT`] ids are reserved for specials) with
    /// `n_topics` clusters and `branching` successors per token.
    ///
    /// # Panics
    ///
    /// Panics if the regular vocabulary cannot host `n_topics` clusters of
    /// at least `branching + 1` tokens each.
    pub fn new(vocab_size: usize, n_topics: usize, branching: usize, seed: u64) -> Self {
        let first_regular = crate::special_tokens::COUNT;
        assert!(vocab_size > first_regular, "vocab too small for specials");
        let regular = vocab_size - first_regular;
        assert!(
            n_topics > 0 && regular / n_topics > branching,
            "need > {branching} tokens per topic, have {} / {n_topics}",
            regular
        );
        SyntheticLanguage {
            vocab_size,
            n_topics,
            branching,
            first_regular,
            seed,
        }
    }

    /// Vocabulary size including special tokens.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Size of one topic's token cluster.
    pub fn cluster_size(&self) -> usize {
        (self.vocab_size - self.first_regular) / self.n_topics
    }

    /// First token id of `topic`'s cluster.
    fn cluster_start(&self, topic: usize) -> usize {
        self.first_regular + topic * self.cluster_size()
    }

    /// The `k`-th likely successor of `token` within `topic` — a fixed
    /// pseudorandom permutation derived from the language seed.
    fn successor(&self, topic: usize, token: usize, k: usize) -> usize {
        let cs = self.cluster_size();
        let start = self.cluster_start(topic);
        let local = token - start;
        // SplitMix-style hash for a deterministic successor table.
        let mut h = self
            .seed
            .wrapping_add((topic as u64) << 40)
            .wrapping_add((local as u64) << 16)
            .wrapping_add(k as u64);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58476D1CE4E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D049BB133111EB);
        h ^= h >> 31;
        start + (h as usize % cs)
    }

    /// Samples one sentence of `len` tokens from `topic`'s chain.
    ///
    /// # Panics
    ///
    /// Panics if `topic >= n_topics` or `len == 0`.
    pub fn sentence(&self, topic: usize, len: usize, rng: &mut impl Rng) -> Vec<usize> {
        assert!(topic < self.n_topics, "topic {topic} out of range");
        assert!(len > 0, "empty sentence");
        let cs = self.cluster_size();
        let start = self.cluster_start(topic);
        let mut out = Vec::with_capacity(len);
        let mut cur = start + rng.gen_range(0..cs);
        out.push(cur);
        for _ in 1..len {
            // Decaying successor profile: P(k-th successor) ∝ 2^{−k}.
            let r: f64 = rng.gen();
            let mut k = 0;
            let mut acc = 0.0;
            let norm: f64 = (0..self.branching).map(|i| 0.5f64.powi(i as i32 + 1)).sum();
            for i in 0..self.branching {
                acc += 0.5f64.powi(i as i32 + 1) / norm;
                if r < acc {
                    k = i;
                    break;
                }
                k = i;
            }
            cur = self.successor(topic, cur, k);
            out.push(cur);
        }
        out
    }

    /// Samples a sentence pair: `(sent_a, sent_b, is_random)` where
    /// `is_random` follows BERT's NSP setup (50 % consecutive same-topic,
    /// 50 % random different-topic).
    pub fn sentence_pair(
        &self,
        len_a: usize,
        len_b: usize,
        rng: &mut impl Rng,
    ) -> (Vec<usize>, Vec<usize>, bool) {
        let topic_a = rng.gen_range(0..self.n_topics);
        let is_random = rng.gen_bool(0.5) && self.n_topics > 1;
        let topic_b = if is_random {
            let mut t = rng.gen_range(0..self.n_topics);
            while t == topic_a {
                t = rng.gen_range(0..self.n_topics);
            }
            t
        } else {
            topic_a
        };
        (
            self.sentence(topic_a, len_a, rng),
            self.sentence(topic_b, len_b, rng),
            is_random,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lang() -> SyntheticLanguage {
        SyntheticLanguage::new(68, 4, 4, 7)
    }

    #[test]
    fn sentences_stay_in_cluster() {
        let l = lang();
        let mut rng = StdRng::seed_from_u64(1);
        for topic in 0..4 {
            let s = l.sentence(topic, 32, &mut rng);
            let start = crate::special_tokens::COUNT + topic * l.cluster_size();
            let end = start + l.cluster_size();
            assert!(
                s.iter().all(|&t| (start..end).contains(&t)),
                "topic {topic}"
            );
        }
    }

    #[test]
    fn chain_is_predictable() {
        // Successor distribution given a token must be concentrated: the
        // most common successor should appear ≫ 1/cluster_size of the time.
        let l = lang();
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = std::collections::HashMap::<(usize, usize), usize>::new();
        let mut totals = std::collections::HashMap::<usize, usize>::new();
        for _ in 0..200 {
            let s = l.sentence(0, 64, &mut rng);
            for w in s.windows(2) {
                *counts.entry((w[0], w[1])).or_default() += 1;
                *totals.entry(w[0]).or_default() += 1;
            }
        }
        let (&(tok, _), &max_count) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
        let frac = max_count as f64 / totals[&tok] as f64;
        assert!(frac > 0.3, "chain too flat: top successor fraction {frac}");
    }

    #[test]
    fn random_pairs_cross_topics() {
        let l = lang();
        let mut rng = StdRng::seed_from_u64(3);
        let mut saw_random = false;
        let mut saw_consecutive = false;
        for _ in 0..50 {
            let (a, b, is_random) = l.sentence_pair(8, 8, &mut rng);
            let topic_of = |t: usize| (t - crate::special_tokens::COUNT) / l.cluster_size();
            if is_random {
                saw_random = true;
                assert_ne!(topic_of(a[0]), topic_of(b[0]));
            } else {
                saw_consecutive = true;
                assert_eq!(topic_of(a[0]), topic_of(b[0]));
            }
        }
        assert!(saw_random && saw_consecutive);
    }

    #[test]
    fn deterministic_given_seeds() {
        let l = lang();
        let a = l.sentence(1, 16, &mut StdRng::seed_from_u64(9));
        let b = l.sentence(1, 16, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "tokens per topic")]
    fn too_many_topics_panics() {
        let _ = SyntheticLanguage::new(20, 8, 4, 0);
    }
}
