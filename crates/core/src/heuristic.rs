//! Algo. 1: one-step greedy heuristic for a maximal configuration.
//!
//! Computing the cost-optimal configuration is NP-hard (Thm. 3.1, by
//! reduction from maxSAT), so construction is greedy: estimate the cost
//! of every single-mapping candidate `(ℓ → ℓ')` (for labels `ℓ` present
//! in the graph with a direct supertype `ℓ'`), process candidates in
//! ascending estimated cost, and accept each whose addition keeps the
//! combined cost within the threshold `θ`, stopping at the budget `Π`.

use crate::compress::{pooled_ratio, CompressEstimator};
use crate::config::GenConfig;
use crate::cost::{construction_cost_with_compress, CostParams};
use bgi_graph::par::par_map;
use bgi_graph::stats::LabelSupport;
use bgi_graph::{DiGraph, LabelId, Ontology};

/// Samples Algo. 1 estimates compression on, for ranking and acceptance
/// alike: the first `SAMPLES` of the estimator's set.
const SAMPLES: usize = 64;

/// Runs Algo. 1: returns the greedy configuration for one layer.
///
/// `estimator` carries the sampled subgraphs used for compression
/// estimates; `support` the label supports of `g`.
pub fn greedy_configuration(
    g: &DiGraph,
    ontology: &Ontology,
    estimator: &CompressEstimator,
    support: &LabelSupport,
    params: &CostParams,
) -> GenConfig {
    greedy_configuration_threaded(g, ontology, estimator, support, params, 1)
}

/// [`greedy_configuration`] with its compression estimates fanned out
/// over up to `threads` scoped workers.
///
/// The estimates are incremental. Every capped sample is bisimulated
/// once under the empty configuration; a candidate `(ℓ → ℓ')` then
/// re-bisimulates only the samples that contain `ℓ`, since `C(ℓ)` is
/// one step and leaves every other sample's summary as it was. The
/// acceptance loop keeps the per-sample summary sizes of the accepted
/// configuration the same way. Each cost is a ratio of the same integer
/// sums the from-scratch estimate pools, so it is bit-identical to it,
/// and results are collected in candidate order: the returned
/// configuration is identical for every thread count.
pub fn greedy_configuration_threaded(
    g: &DiGraph,
    ontology: &Ontology,
    estimator: &CompressEstimator,
    support: &LabelSupport,
    params: &CostParams,
    threads: usize,
) -> GenConfig {
    greedy(g, ontology, estimator, support, params, threads).config
}

/// Algo. 1's intermediate results. Only the configuration leaves the
/// module; the costs are read by the differential test.
#[derive(Debug)]
#[cfg_attr(not(test), allow(dead_code))]
struct Greedy {
    /// Candidates `(cost, ℓ, ℓ')` in priority order.
    ranked: Vec<(f64, LabelId, LabelId)>,
    /// The cost of every acceptance trial, in loop order.
    trials: Vec<f64>,
    config: GenConfig,
}

/// Candidate single-mapping generalizations: every label present in
/// the graph paired with each of its direct supertypes.
fn candidate_pairs(g: &DiGraph, ontology: &Ontology) -> Vec<(LabelId, LabelId)> {
    let mut pairs: Vec<(LabelId, LabelId)> = Vec::new();
    for (i, &count) in g.label_counts().iter().enumerate() {
        let l = LabelId(i as u32);
        if count == 0 || l.index() >= ontology.num_labels() {
            continue;
        }
        for &sup in ontology.direct_supertypes(l) {
            pairs.push((l, sup));
        }
    }
    pairs
}

fn greedy(
    g: &DiGraph,
    ontology: &Ontology,
    estimator: &CompressEstimator,
    support: &LabelSupport,
    params: &CostParams,
    threads: usize,
) -> Greedy {
    let pairs = candidate_pairs(g, ontology);
    let n = estimator.num_samples().min(SAMPLES);
    // The capped samples that contain `l` (the list is ascending).
    let affected = |l: LabelId| {
        let all = estimator.samples_with(l);
        &all[..all.partition_point(|&i| (i as usize) < n)]
    };
    let original: usize = (0..n).map(|i| estimator.sample_size(i)).sum();
    let empty = GenConfig::empty();
    let mut sizes = par_map(threads, n, |i| estimator.summary_size(i, &empty));
    let mut summarized: usize = sizes.iter().sum();
    let cost = |summarized: usize, config: &GenConfig| {
        construction_cost_with_compress(
            pooled_ratio(summarized, original),
            support,
            config,
            params.alpha,
        )
    };

    let costs = par_map(threads, pairs.len(), |k| {
        let (l, sup) = pairs[k];
        let mut single = GenConfig::empty();
        single.insert(l, sup);
        let patched = affected(l).iter().fold(summarized, |sum, &i| {
            sum - sizes[i as usize] + estimator.summary_size(i as usize, &single)
        });
        cost(patched, &single)
    });
    let mut ranked: Vec<(f64, LabelId, LabelId)> = costs
        .into_iter()
        .zip(&pairs)
        .map(|(cost, &(l, sup))| (cost, l, sup))
        .collect();
    // Priority order: ascending estimated cost (ties by label for
    // determinism).
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut trials = Vec::new();
    let mut config = GenConfig::empty();
    for &(_, l, sup) in &ranked {
        if config.len() >= params.pi {
            break;
        }
        // A label may appear with several supertypes; keep the first
        // (cheapest) accepted mapping.
        if config.apply(l) != l {
            continue;
        }
        let mut trial = config.clone();
        trial.insert(l, sup);
        let touched = affected(l);
        let fresh = par_map(threads, touched.len(), |k| {
            estimator.summary_size(touched[k] as usize, &trial)
        });
        let patched = touched
            .iter()
            .zip(&fresh)
            .fold(summarized, |sum, (&i, &size)| {
                sum - sizes[i as usize] + size
            });
        let trial_cost = cost(patched, &trial);
        trials.push(trial_cost);
        if trial_cost > params.theta {
            // Algo. 1 returns as soon as a candidate overshoots θ.
            break;
        }
        for (&i, size) in touched.iter().zip(fresh) {
            sizes[i as usize] = size;
        }
        summarized = patched;
        config = trial;
    }
    Greedy {
        ranked,
        trials,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distort::graph_distortion;
    use bgi_bisim::BisimDirection;
    use bgi_graph::sampling::SamplingParams;
    use bgi_graph::{GraphBuilder, OntologyBuilder, VId};
    use proptest::prelude::*;

    /// Algo. 1 as it ran before the estimates became incremental: every
    /// candidate and every trial re-estimated from scratch on the
    /// capped samples, serially.
    fn reference(
        g: &DiGraph,
        ontology: &Ontology,
        estimator: &CompressEstimator,
        support: &LabelSupport,
        params: &CostParams,
    ) -> Greedy {
        let cost = |config: &GenConfig| {
            params.alpha * estimator.estimate_on(config, SAMPLES)
                + (1.0 - params.alpha) * graph_distortion(config, support)
        };
        let mut ranked: Vec<(f64, LabelId, LabelId)> = candidate_pairs(g, ontology)
            .into_iter()
            .map(|(l, sup)| {
                let single = GenConfig::new([(l, sup)], ontology).unwrap();
                (cost(&single), l, sup)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut trials = Vec::new();
        let mut config = GenConfig::empty();
        for &(_, l, sup) in &ranked {
            if config.len() >= params.pi {
                break;
            }
            if config.apply(l) != l {
                continue;
            }
            let mut trial = config.clone();
            trial.insert(l, sup);
            let c = cost(&trial);
            trials.push(c);
            if c > params.theta {
                break;
            }
            config = trial;
        }
        Greedy {
            ranked,
            trials,
            config,
        }
    }

    fn bits(costs: impl IntoIterator<Item = f64>) -> Vec<u64> {
        costs.into_iter().map(f64::to_bits).collect()
    }

    /// Runs the incremental Algo. 1 at 1, 2 and 4 threads and checks
    /// every candidate cost, every trial cost (by `to_bits`) and the
    /// configuration against the from-scratch reference, which it
    /// returns.
    fn assert_matches_reference(
        g: &DiGraph,
        ontology: &Ontology,
        estimator: &CompressEstimator,
        params: &CostParams,
    ) -> Greedy {
        let support = LabelSupport::new(g);
        let want = reference(g, ontology, estimator, &support, params);
        for threads in [1usize, 2, 4] {
            let got = greedy(g, ontology, estimator, &support, params, threads);
            let labels = |r: &Greedy| r.ranked.iter().map(|c| (c.1, c.2)).collect::<Vec<_>>();
            assert_eq!(labels(&got), labels(&want), "{threads} threads");
            assert_eq!(
                bits(got.ranked.iter().map(|c| c.0)),
                bits(want.ranked.iter().map(|c| c.0)),
                "{threads} threads"
            );
            assert_eq!(
                bits(got.trials),
                bits(want.trials.iter().copied()),
                "{threads} threads"
            );
            assert_eq!(got.config, want.config, "{threads} threads");
        }
        want
    }

    fn sampled(g: &DiGraph, radius: u32, num_samples: usize, max_ball: usize) -> CompressEstimator {
        CompressEstimator::new(
            g,
            &SamplingParams {
                radius,
                num_samples,
                max_ball,
                seed: 1,
            },
            BisimDirection::Forward,
        )
    }

    /// Graph labels `0..8` under a 12-label ontology whose edges run
    /// from the higher id down (so it is a DAG, with several supertypes
    /// per label and supertypes no vertex carries).
    fn small_ontology(edges: &[(u32, u32)]) -> Ontology {
        let mut b = OntologyBuilder::new(12);
        for &(a, c) in edges {
            if a != c {
                b.add_subtype(LabelId(a.max(c)), LabelId(a.min(c)));
            }
        }
        b.build().unwrap()
    }

    prop_compose! {
        /// A graph of up to 40 vertices, an ontology over its labels,
        /// and an estimator that may draw none, few, or more samples
        /// than Algo. 1 reads.
        fn arb_instance()(
            n in 0usize..40,
            edges in proptest::collection::vec((0usize..40, 0usize..40), 0..100),
            labels in proptest::collection::vec(0u32..8, 40),
            ont_edges in proptest::collection::vec((0u32..12, 0u32..12), 0..16),
            sampling in (0u32..3, 0usize..80, 1usize..24),
        ) -> (DiGraph, Ontology, CompressEstimator) {
            let mut b = GraphBuilder::new();
            for &l in labels.iter().take(n) {
                b.add_vertex(LabelId(l));
            }
            for (u, v) in edges {
                if u < n && v < n {
                    b.add_edge(VId(u as u32), VId(v as u32));
                }
            }
            let g = b.build();
            let est = sampled(&g, sampling.0, sampling.1, sampling.2);
            (g, small_ontology(&ont_edges), est)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn incremental_algo1_matches_from_scratch(
            instance in arb_instance(),
            alpha in 0.0f64..=1.0,
            theta in 0.0f64..1.2,
            pi in 0usize..6,
        ) {
            let (g, o, est) = instance;
            let params = CostParams {
                alpha,
                theta,
                pi: if pi == 5 { usize::MAX } else { pi },
            };
            assert_matches_reference(&g, &o, &est, &params);
        }
    }

    #[test]
    fn incremental_matches_reference_without_samples() {
        let (g, o) = setup();
        let est = sampled(&g, 2, 0, 256);
        assert_eq!(est.num_samples(), 0);
        let run = assert_matches_reference(&g, &o, &est, &CostParams::default());
        assert!(!run.ranked.is_empty());
    }

    #[test]
    fn incremental_matches_reference_for_unsampled_labels() {
        // One one-vertex ball: at most one candidate label is sampled.
        let (g, o) = setup();
        let est = sampled(&g, 0, 1, 1);
        let unsampled = candidate_pairs(&g, &o)
            .iter()
            .filter(|&&(l, _)| est.samples_with(l).is_empty())
            .count();
        assert!(unsampled > 0);
        assert_matches_reference(&g, &o, &est, &CostParams::default());
    }

    #[test]
    fn incremental_matches_reference_under_pi_cap() {
        let (g, o) = setup();
        let est = estimator(&g);
        let params = CostParams {
            pi: 1,
            ..CostParams::default()
        };
        let run = assert_matches_reference(&g, &o, &est, &params);
        assert_eq!(run.config.len(), 1);
    }

    #[test]
    fn incremental_matches_reference_on_theta_overshoot() {
        // θ set to the first trial's cost accepts that mapping, then the
        // loop must stop on the first trial that costs more.
        let (g, o) = setup();
        let est = estimator(&g);
        let free = reference(&g, &o, &est, &LabelSupport::new(&g), &CostParams::default());
        let params = CostParams {
            theta: free.trials[0],
            ..CostParams::default()
        };
        let run = assert_matches_reference(&g, &o, &est, &params);
        assert!(!run.config.is_empty());
        assert!(run.trials.last().is_some_and(|&c| c > params.theta));
    }

    /// Two person subtypes pointing at a hub; generalizing them enables
    /// compression.
    fn setup() -> (DiGraph, Ontology) {
        let mut gb = GraphBuilder::new();
        let hub = gb.add_vertex(LabelId(3));
        for i in 0..40 {
            let l = if i % 2 == 0 { LabelId(1) } else { LabelId(2) };
            let v = gb.add_vertex(l);
            gb.add_edge(v, hub);
        }
        let g = gb.build();
        let mut ob = OntologyBuilder::new(4);
        ob.add_subtype(LabelId(0), LabelId(1));
        ob.add_subtype(LabelId(0), LabelId(2));
        let o = ob.build().unwrap();
        (g, o)
    }

    fn estimator(g: &DiGraph) -> CompressEstimator {
        sampled(g, 2, 40, 256)
    }

    #[test]
    fn greedy_finds_compressing_mappings() {
        let (g, o) = setup();
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let config = greedy_configuration(&g, &o, &est, &support, &CostParams::default());
        assert_eq!(config.apply(LabelId(1)), LabelId(0));
        assert_eq!(config.apply(LabelId(2)), LabelId(0));
    }

    #[test]
    fn threaded_greedy_matches_serial() {
        let (g, o) = setup();
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let serial = greedy_configuration(&g, &o, &est, &support, &CostParams::default());
        for threads in [2usize, 4, 8] {
            let parallel = greedy_configuration_threaded(
                &g,
                &o,
                &est,
                &support,
                &CostParams::default(),
                threads,
            );
            assert_eq!(serial.mappings(), parallel.mappings(), "{threads} threads");
        }
    }

    #[test]
    fn pi_budget_caps_config_size() {
        let (g, o) = setup();
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let params = CostParams {
            pi: 1,
            ..CostParams::default()
        };
        let config = greedy_configuration(&g, &o, &est, &support, &params);
        assert_eq!(config.len(), 1);
    }

    #[test]
    fn tight_theta_rejects_everything() {
        let (g, o) = setup();
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let params = CostParams {
            theta: 0.0,
            ..CostParams::default()
        };
        let config = greedy_configuration(&g, &o, &est, &support, &params);
        assert!(config.is_empty());
    }

    #[test]
    fn no_supertypes_means_empty_config() {
        let g = bgi_graph::generate::uniform_random(30, 60, 3, 2);
        let o = OntologyBuilder::new(3).build().unwrap(); // flat ontology
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let config = greedy_configuration(&g, &o, &est, &support, &CostParams::default());
        assert!(config.is_empty());
    }

    #[test]
    fn absent_labels_not_considered() {
        // Graph uses only label 3 (the hub label has no supertype);
        // labels 1, 2 absent -> nothing to generalize.
        let mut gb = GraphBuilder::new();
        gb.add_vertex(LabelId(3));
        let g = gb.build();
        let (_, o) = setup();
        let est = estimator(&g);
        let support = LabelSupport::new(&g);
        let config = greedy_configuration(&g, &o, &est, &support, &CostParams::default());
        assert!(config.is_empty());
    }
}
