//! Compression-ratio computation and estimation (Sec. 3.2, part (i)).
//!
//! `compress(G, C) = |χ(G, C)| / |G| = |Bisim(Gen(G, C))| / |G|` — the
//! smaller, the better the layer compresses. Computing it exactly means
//! generalizing and bisimulating the whole graph, so the greedy
//! configuration search estimates it instead on `n` sampled r-hop
//! node-induced subgraphs, averaging per-sample ratios.

use crate::config::GenConfig;
use bgi_bisim::{maximal_bisimulation, summarize, BisimDirection};
use bgi_graph::sampling::{sample_subgraphs_threaded, SamplingParams};
use bgi_graph::subgraph::InducedSubgraph;
use bgi_graph::{DiGraph, LabelId};

/// Exact compression ratio of applying `χ(·, C)` to `g`.
pub fn exact_compress(g: &DiGraph, config: &GenConfig, dir: BisimDirection) -> f64 {
    if g.size() == 0 {
        return 1.0;
    }
    let generalized = g.relabel(&config.label_map(g.alphabet_size()));
    let part = maximal_bisimulation(&generalized, dir);
    let summary = summarize(&generalized, &part);
    summary.graph.size() as f64 / g.size() as f64
}

/// Pre-drawn samples for repeated estimation against many candidate
/// configurations (Algo. 1 evaluates hundreds of candidates against the
/// same sample set).
///
/// Alongside the samples it keeps a label → samples inverted list.
/// `C(ℓ)` is one step, so adding a mapping `(ℓ → ℓ')` to a
/// configuration relabels only the vertices labelled `ℓ`: every sample
/// outside `samples_with(ℓ)` keeps its `summary_size`, which is what
/// lets Algo. 1 re-bisimulate only the samples a candidate touches.
#[derive(Debug)]
pub struct CompressEstimator {
    samples: Vec<InducedSubgraph>,
    /// `samples_by_label[ℓ]`: ascending indices of the samples holding
    /// a vertex labelled `ℓ`.
    samples_by_label: Vec<Vec<u32>>,
    alphabet_size: usize,
    dir: BisimDirection,
}

impl CompressEstimator {
    /// Draws the sample set from `g`.
    pub fn new(g: &DiGraph, params: &SamplingParams, dir: BisimDirection) -> Self {
        Self::new_threaded(g, params, dir, 1)
    }

    /// [`CompressEstimator::new`] drawing the r-hop balls on up to
    /// `threads` scoped workers. Per-sample seeding makes the sample
    /// set bit-identical to the serial draw (see
    /// [`bgi_graph::sampling::sample_subgraphs_threaded`]), so the
    /// estimates — and everything downstream, up to the stored index
    /// bytes — do not depend on the thread count.
    pub fn new_threaded(
        g: &DiGraph,
        params: &SamplingParams,
        dir: BisimDirection,
        threads: usize,
    ) -> Self {
        let samples = sample_subgraphs_threaded(g, params, threads);
        // A sample's alphabet ends at its largest label, one of `g`'s.
        let mut samples_by_label: Vec<Vec<u32>> = vec![Vec::new(); g.alphabet_size()];
        for (i, s) in samples.iter().enumerate() {
            for (l, &count) in s.graph.label_counts().iter().enumerate() {
                if count > 0 {
                    samples_by_label[l].push(i as u32);
                }
            }
        }
        CompressEstimator {
            samples,
            samples_by_label,
            alphabet_size: g.alphabet_size(),
            dir,
        }
    }

    /// Number of samples drawn.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// Ascending indices of the samples that contain a vertex labelled
    /// `l` (empty for a label no sample holds).
    pub(crate) fn samples_with(&self, l: LabelId) -> &[u32] {
        self.samples_by_label
            .get(l.index())
            .map_or(&[], Vec::as_slice)
    }

    /// `|s|` of sample `i`.
    pub(crate) fn sample_size(&self, i: usize) -> usize {
        self.samples[i].graph.size()
    }

    /// `|χ(s, C)|` of sample `i`: the size of its maximal-bisimulation
    /// summary after generalizing it by `config`.
    pub(crate) fn summary_size(&self, i: usize, config: &GenConfig) -> usize {
        let s = &self.samples[i].graph;
        if s.size() == 0 {
            return 0;
        }
        let generalized = s.relabel(&config.label_map(self.alphabet_size));
        let part = maximal_bisimulation(&generalized, self.dir);
        summarize(&generalized, &part).graph.size()
    }

    /// Estimated `compress(G, C)` as the pooled ratio
    /// `Σ|χ(s, C)| / Σ|s|` over the samples. Pooling weights each sample
    /// by its size, so the many tiny (often singleton) balls drawn from
    /// sparse regions do not drown out the compressible ones — the
    /// variant that tracks the exact ratio's *ordering* across candidate
    /// configurations, which is all Algo. 1 needs (Exp-4 validates the
    /// ordering with Spearman correlation). Returns 1.0 with no samples.
    pub fn estimate(&self, config: &GenConfig) -> f64 {
        let n = self.samples.len();
        pooled_ratio(
            (0..n).map(|i| self.summary_size(i, config)).sum(),
            (0..n).map(|i| self.sample_size(i)).sum(),
        )
    }

    /// The estimate recomputed from scratch over the first
    /// `max_samples` samples — the reference the incremental Algo. 1
    /// is checked against bit for bit.
    #[cfg(test)]
    pub(crate) fn estimate_on(&self, config: &GenConfig, max_samples: usize) -> f64 {
        if self.samples.is_empty() || max_samples == 0 {
            return 1.0;
        }
        let map = config.label_map(self.alphabet_size);
        let mut summarized = 0usize;
        let mut original = 0usize;
        for s in self.samples.iter().take(max_samples) {
            if s.graph.size() == 0 {
                continue;
            }
            let generalized = s.graph.relabel(&map);
            let part = maximal_bisimulation(&generalized, self.dir);
            let summary = summarize(&generalized, &part);
            summarized += summary.graph.size();
            original += s.graph.size();
        }
        if original == 0 {
            1.0
        } else {
            summarized as f64 / original as f64
        }
    }
}

/// The pooled ratio `summarized / original` of integer size sums (1.0
/// when nothing was sampled). Integer sums are order-free, so a sum
/// patched sample by sample yields the same `f64`, bit for bit, as one
/// recomputed from scratch.
pub(crate) fn pooled_ratio(summarized: usize, original: usize) -> f64 {
    if original == 0 {
        1.0
    } else {
        summarized as f64 / original as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_graph::{GraphBuilder, LabelId, Ontology, OntologyBuilder};

    /// 50 vertices of label 1 and 50 of label 2, all pointing at a hub
    /// (label 3). Generalizing 1,2 -> 0 lets all 100 collapse.
    fn fan_two_types() -> DiGraph {
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(LabelId(3));
        for i in 0..100 {
            let l = if i < 50 { LabelId(1) } else { LabelId(2) };
            let v = b.add_vertex(l);
            b.add_edge(v, hub);
        }
        b.build()
    }

    fn ontology() -> Ontology {
        let mut b = OntologyBuilder::new(4);
        b.add_subtype(LabelId(0), LabelId(1));
        b.add_subtype(LabelId(0), LabelId(2));
        b.build().unwrap()
    }

    #[test]
    fn generalization_enables_compression() {
        let g = fan_two_types();
        let o = ontology();
        let empty = GenConfig::empty();
        let full =
            GenConfig::new([(LabelId(1), LabelId(0)), (LabelId(2), LabelId(0))], &o).unwrap();
        let c_empty = exact_compress(&g, &empty, BisimDirection::Forward);
        let c_full = exact_compress(&g, &full, BisimDirection::Forward);
        // Without generalization: 2 person-blocks + hub = |3 + 2| / 201.
        // With: 1 block + hub = |2 + 1| / 201.
        assert!(c_full < c_empty);
        assert!((c_full - 3.0 / 201.0).abs() < 1e-9, "c_full = {c_full}");
    }

    /// Like `fan_two_types` but edges point hub -> persons, so forward
    /// r-hop balls from the hub capture the compressible structure.
    fn outward_fan() -> DiGraph {
        let mut b = GraphBuilder::new();
        let hub = b.add_vertex(LabelId(3));
        for i in 0..100 {
            let l = if i < 50 { LabelId(1) } else { LabelId(2) };
            let v = b.add_vertex(l);
            b.add_edge(hub, v);
        }
        b.build()
    }

    #[test]
    fn estimator_tracks_exact_ordering() {
        let g = outward_fan();
        let o = ontology();
        let empty = GenConfig::empty();
        let full =
            GenConfig::new([(LabelId(1), LabelId(0)), (LabelId(2), LabelId(0))], &o).unwrap();
        let est = CompressEstimator::new(
            &g,
            &SamplingParams {
                radius: 2,
                num_samples: 60,
                max_ball: 256,
                seed: 3,
            },
            BisimDirection::Forward,
        );
        // The estimate must preserve the relative ordering of configs
        // (that is what Exp-4 validates with Spearman correlation).
        assert!(est.estimate(&full) < est.estimate(&empty));
    }

    #[test]
    fn estimates_are_ratios() {
        let g = bgi_graph::generate::uniform_random(200, 600, 4, 5);
        let est = CompressEstimator::new(
            &g,
            &SamplingParams {
                radius: 2,
                num_samples: 30,
                max_ball: 256,
                seed: 7,
            },
            BisimDirection::Forward,
        );
        let r = est.estimate(&GenConfig::empty());
        assert!(r > 0.0 && r <= 1.0 + 1e-9, "r = {r}");
        let from_scratch = est.estimate_on(&GenConfig::empty(), usize::MAX);
        assert_eq!(r.to_bits(), from_scratch.to_bits());
    }

    #[test]
    fn threaded_estimator_is_bit_identical_to_serial() {
        let g = bgi_graph::generate::uniform_random(300, 900, 5, 9);
        let params = SamplingParams {
            radius: 2,
            num_samples: 48,
            max_ball: 64,
            seed: 11,
        };
        let serial = CompressEstimator::new(&g, &params, BisimDirection::Forward);
        let o = ontology();
        let config =
            GenConfig::new([(LabelId(1), LabelId(0)), (LabelId(2), LabelId(0))], &o).unwrap();
        for threads in [2usize, 4, 8] {
            let parallel =
                CompressEstimator::new_threaded(&g, &params, BisimDirection::Forward, threads);
            assert_eq!(serial.num_samples(), parallel.num_samples());
            // f64 bit equality, not approximate: the sample sets match.
            assert_eq!(
                serial.estimate(&config).to_bits(),
                parallel.estimate(&config).to_bits(),
                "{threads} threads"
            );
            assert_eq!(
                serial.estimate(&GenConfig::empty()).to_bits(),
                parallel.estimate(&GenConfig::empty()).to_bits()
            );
        }
    }

    #[test]
    fn inverted_list_names_exactly_the_samples_holding_each_label() {
        let g = bgi_graph::generate::uniform_random(300, 500, 12, 4);
        let est = CompressEstimator::new(
            &g,
            &SamplingParams {
                radius: 1,
                num_samples: 50,
                max_ball: 6,
                seed: 2,
            },
            BisimDirection::Forward,
        );
        let mut unsampled = 0;
        for l in (0..g.alphabet_size() as u32 + 2).map(LabelId) {
            let want: Vec<u32> = (0..est.num_samples() as u32)
                .filter(|&i| est.samples[i as usize].graph.labels().contains(&l))
                .collect();
            assert_eq!(est.samples_with(l), want.as_slice(), "label {l:?}");
            unsampled += usize::from(want.is_empty());
        }
        // The labels past the alphabet are in no sample.
        assert!(unsampled >= 2);
    }

    #[test]
    fn empty_graph_degenerates_gracefully() {
        let g = GraphBuilder::new().build();
        assert_eq!(
            exact_compress(&g, &GenConfig::empty(), BisimDirection::Forward),
            1.0
        );
        let est = CompressEstimator::new(&g, &SamplingParams::default(), BisimDirection::Forward);
        assert_eq!(est.estimate(&GenConfig::empty()), 1.0);
    }
}
