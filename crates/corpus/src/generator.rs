//! The collection generator: background Zipf stream + topical bursts.

use crate::config::CorpusConfig;
use crate::query::TopicQuery;
use crate::words::term_name;
use crate::zipf::Zipf;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// One TREC-like topic: an ordered list of salient terms (most salient
/// first) with query frequencies, plus the topical concentration its
/// relevant documents were generated with.
#[derive(Clone, Debug)]
pub struct Topic {
    /// Topic index (position in [`Corpus::topics`]).
    pub id: usize,
    /// `(rank, f_{q,t})` pairs, descending salience.
    pub salient: Vec<(u32, u32)>,
    /// Fraction of a relevant document's tokens drawn from this topic.
    pub concentration: f64,
}

/// A generated collection: documents as `(term rank, f_{d,t})` bags,
/// topics, and relevance judgments (which documents were generated from
/// which topic).
#[derive(Debug)]
pub struct Corpus {
    /// The configuration that produced this corpus.
    pub config: CorpusConfig,
    /// Per-document term bags; document id = vector index.
    pub docs: Vec<Vec<(u32, u32)>>,
    /// The topics.
    pub topics: Vec<Topic>,
    /// Topics each document was generated from (usually 0–2).
    pub doc_topics: Vec<Vec<u16>>,
    /// Relevance judgments: documents per topic, ascending.
    relevant: Vec<Vec<u32>>,
}

impl Corpus {
    /// Generates a corpus. Deterministic in `config.seed`.
    ///
    /// ```
    /// use ir_corpus::{Corpus, CorpusConfig};
    ///
    /// let corpus = Corpus::generate(CorpusConfig::tiny());
    /// assert_eq!(corpus.docs.len(), corpus.config.n_docs as usize);
    /// let queries = corpus.queries();
    /// assert_eq!(queries.len(), corpus.topics.len());
    /// // Relevance judgments come straight from the generator.
    /// assert!(!corpus.relevant_docs(queries[0].topic).is_empty());
    /// ```
    ///
    /// # Panics
    /// Panics if the configuration fails [`CorpusConfig::validate`].
    pub fn generate(config: CorpusConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid corpus config: {e}");
        }
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let background = Zipf::new(
            config.skip_top_ranks,
            config.vocab_size,
            config.zipf_exponent,
        );
        let topics = Self::make_topics(&config, &mut rng);
        // Per-topic burst distribution over the salient list positions.
        let burst: Vec<Zipf> = topics
            .iter()
            .map(|t| Zipf::new(0, t.salient.len() as u32, config.salient_exponent))
            .collect();

        let mut docs = Vec::with_capacity(config.n_docs as usize);
        let mut doc_topics = Vec::with_capacity(config.n_docs as usize);
        let mut relevant: Vec<Vec<u32>> = vec![Vec::new(); topics.len()];
        let mu = (config.mean_doc_tokens as f64).ln() - config.doc_length_sigma.powi(2) / 2.0;
        let mut counts = TokenCounts::new(config.vocab_size);

        for d in 0..config.n_docs {
            // Document length: log-normal, at least 5 tokens.
            let z = gaussian(&mut rng);
            let len = ((mu + config.doc_length_sigma * z).exp().round() as usize).max(5);

            // Topic assignment.
            let mut assigned: Vec<u16> = Vec::new();
            if rng.gen::<f64>() < config.topic_assign_prob {
                assigned.push(rng.gen_range(0..topics.len()) as u16);
                if rng.gen::<f64>() < config.second_topic_prob {
                    let second = rng.gen_range(0..topics.len()) as u16;
                    if second != assigned[0] {
                        assigned.push(second);
                    }
                }
            }

            // Topical tokens first.
            let mut topical_total = 0usize;
            for &t in &assigned {
                let topic = &topics[t as usize];
                let n =
                    ((topic.concentration * len as f64).round() as usize).min(len - topical_total);
                for _ in 0..n {
                    let pos = burst[t as usize].sample(&mut rng) as usize;
                    counts.add(topic.salient[pos].0);
                }
                topical_total += n;
                relevant[t as usize].push(d);
            }
            // Background tokens.
            for _ in topical_total..len {
                counts.add(background.sample(&mut rng));
            }

            docs.push(counts.take_bag());
            doc_topics.push(assigned);
        }
        for r in relevant.iter_mut() {
            r.sort_unstable();
            r.dedup();
        }
        Corpus {
            config,
            docs,
            topics,
            doc_topics,
            relevant,
        }
    }

    fn make_topics(config: &CorpusConfig, rng: &mut SmallRng) -> Vec<Topic> {
        let lo = (config.skip_top_ranks + 50).min(config.vocab_size - 1) as f64;
        let hi = config.vocab_size as f64;
        (0..config.n_topics as usize)
            .map(|id| {
                let n_salient =
                    rng.gen_range(config.salient_range.0..=config.salient_range.1) as usize;
                // Per-topic commonness bias: low gamma pulls salient
                // terms toward common ranks (long lists, the QUERY4
                // archetype), high gamma toward rare ranks.
                let gamma = rng.gen_range(0.5..1.6);
                let mut seen = std::collections::HashSet::new();
                let mut salient = Vec::with_capacity(n_salient);
                while salient.len() < n_salient {
                    let u: f64 = rng.gen::<f64>().powf(gamma);
                    let rank = (lo.ln() + u * (hi.ln() - lo.ln())).exp().floor() as u32;
                    let rank = rank.clamp(config.skip_top_ranks, config.vocab_size - 1);
                    if seen.insert(rank) {
                        salient.push(rank);
                    }
                }
                // Query frequencies: the few most salient terms carry
                // relevance-feedback-style weight (cf. Table 6's f_{q,t}
                // of 1–5 skewed toward high-contribution terms).
                let salient = salient
                    .into_iter()
                    .enumerate()
                    .map(|(j, rank)| {
                        let fq = match j {
                            0 => 5,
                            1 => 4,
                            2 => 3,
                            3..=7 => 2,
                            _ => 1,
                        };
                        (rank, fq)
                    })
                    .collect();
                let concentration =
                    rng.gen_range(config.concentration_range.0..=config.concentration_range.1);
                Topic {
                    id,
                    salient,
                    concentration,
                }
            })
            .collect()
    }

    /// One query per topic, in topic order (the analogue of the paper's
    /// 100 TREC queries 51–150).
    pub fn queries(&self) -> Vec<TopicQuery> {
        self.topics
            .iter()
            .map(|t| TopicQuery {
                topic: t.id,
                terms: t
                    .salient
                    .iter()
                    .map(|&(rank, fq)| (term_name(rank), fq))
                    .collect(),
            })
            .collect()
    }

    /// Documents judged relevant to `topic` (those generated from it).
    pub fn relevant_docs(&self, topic: usize) -> &[u32] {
        self.relevant.get(topic).map_or(&[], Vec::as_slice)
    }

    /// Total `(d, f_{d,t})` postings over all documents.
    pub fn total_postings(&self) -> u64 {
        self.docs.iter().map(|d| d.len() as u64).sum()
    }

    /// Number of distinct terms that actually occur.
    pub fn distinct_terms(&self) -> usize {
        let mut seen = vec![false; self.config.vocab_size as usize];
        for doc in &self.docs {
            for &(rank, _) in doc {
                seen[rank as usize] = true;
            }
        }
        seen.into_iter().filter(|&b| b).count()
    }
}

/// One document's token counts by rank: a dense count per rank plus
/// the ranks touched so far, so a document costs its own tokens, not
/// the vocabulary, and the arrays are reused across documents.
struct TokenCounts {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl TokenCounts {
    fn new(vocab_size: u32) -> Self {
        TokenCounts {
            counts: vec![0; vocab_size as usize],
            touched: Vec::new(),
        }
    }

    fn add(&mut self, rank: u32) {
        let c = &mut self.counts[rank as usize];
        if *c == 0 {
            self.touched.push(rank);
        }
        *c += 1;
    }

    /// The document's `(rank, count)` bag in rank order; resets the
    /// counts for the next document.
    fn take_bag(&mut self) -> Vec<(u32, u32)> {
        self.touched.sort_unstable();
        let counts = &mut self.counts;
        self.touched
            .drain(..)
            .map(|rank| (rank, std::mem::take(&mut counts[rank as usize])))
            .collect()
    }
}

/// Standard normal via Box–Muller (rand's distribution crates are
/// outside the allowed dependency set).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CorpusConfig;

    fn tiny() -> Corpus {
        Corpus::generate(CorpusConfig::tiny())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.doc_topics, b.doc_topics);
        assert_eq!(a.total_postings(), b.total_postings());
    }

    /// A fingerprint of the tiny preset's documents and topic
    /// assignments, pinned so a faster generator cannot change the
    /// corpus it draws.
    #[test]
    fn tiny_corpus_fingerprint_is_pinned() {
        let c = tiny();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        };
        for (doc, topics) in c.docs.iter().zip(&c.doc_topics) {
            mix(doc.len() as u64);
            for &(rank, f) in doc {
                mix((u64::from(rank) << 32) | u64::from(f));
            }
            for &t in topics {
                mix(u64::from(t));
            }
        }
        assert_eq!(h, 0x93e5_2f65_831d_5c0c);
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny();
        let mut cfg = CorpusConfig::tiny();
        cfg.seed = 99;
        let b = Corpus::generate(cfg);
        assert_ne!(a.docs, b.docs);
    }

    #[test]
    fn documents_respect_config_bounds() {
        let c = tiny();
        assert_eq!(c.docs.len(), c.config.n_docs as usize);
        for doc in &c.docs {
            assert!(!doc.is_empty());
            for &(rank, freq) in doc {
                assert!(rank >= c.config.skip_top_ranks, "stop rank {rank} leaked");
                assert!(rank < c.config.vocab_size);
                assert!(freq >= 1);
            }
            // Bags are sorted and duplicate-free.
            assert!(doc.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn relevance_judgments_match_assignments() {
        let c = tiny();
        for (d, topics) in c.doc_topics.iter().enumerate() {
            for &t in topics {
                assert!(
                    c.relevant_docs(t as usize)
                        .binary_search(&(d as u32))
                        .is_ok(),
                    "doc {d} generated from topic {t} must be judged relevant"
                );
            }
        }
        let total_rel: usize = (0..c.topics.len()).map(|t| c.relevant_docs(t).len()).sum();
        assert!(total_rel > 0, "some documents must be topical");
    }

    #[test]
    fn queries_mirror_topics() {
        let c = tiny();
        let qs = c.queries();
        assert_eq!(qs.len(), c.topics.len());
        for (q, t) in qs.iter().zip(&c.topics) {
            assert_eq!(q.topic, t.id);
            assert_eq!(q.len(), t.salient.len());
            let (lo, hi) = c.config.salient_range;
            assert!((lo as usize..=hi as usize).contains(&q.len()));
            // Query frequencies are skewed toward the head.
            assert_eq!(q.terms[0].1, 5);
            assert_eq!(*q.terms.last().map(|(_, f)| f).unwrap(), 1);
        }
    }

    #[test]
    fn token_stream_is_zipf_skewed() {
        let c = tiny();
        // Terms in the first decile of kept ranks should carry far more
        // than a tenth of the postings.
        let kept = c.config.vocab_size - c.config.skip_top_ranks;
        let cut = c.config.skip_top_ranks + kept / 10;
        let head: u64 = c
            .docs
            .iter()
            .flatten()
            .filter(|(r, _)| *r < cut)
            .map(|&(_, f)| u64::from(f))
            .sum();
        let total: u64 = c.docs.iter().flatten().map(|&(_, f)| u64::from(f)).sum();
        assert!(
            head as f64 / total as f64 > 0.4,
            "head fraction {}",
            head as f64 / total as f64
        );
    }

    #[test]
    fn topical_docs_burst_salient_terms() {
        let c = tiny();
        // For each topic, its most salient term should occur with
        // f_{d,t} >= 2 in at least one relevant document.
        let mut bursts = 0;
        for t in &c.topics {
            let top_rank = t.salient[0].0;
            let has_burst = c.relevant_docs(t.id).iter().any(|&d| {
                c.docs[d as usize]
                    .iter()
                    .any(|&(r, f)| r == top_rank && f >= 2)
            });
            if has_burst {
                bursts += 1;
            }
        }
        assert!(
            bursts * 2 >= c.topics.len(),
            "only {bursts}/{} topics show bursts",
            c.topics.len()
        );
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
