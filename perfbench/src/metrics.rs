//! The metric names the benchmark prints, with their units. They must
//! match `BENCHMARK.json` (a test checks this).

use crate::util::Metrics;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_qps", "1/s"),
    ("refresh_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run; a metric of a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // service
    ("service.cache_hit_rate", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.cache_invalidated", "count"),
    ("service.swap_ms", "ms"),
    ("service.coalesced", "count"),
    ("service.overhead_us", "us"),
    ("service.fallback_rate", "ratio"),
    // core (big-index)
    ("core.layer_choice_us", "us"),
    ("core.search_s", "s"),
    ("core.spec_prune_s", "s"),
    ("core.answer_gen_s", "s"),
    ("core.layer_share.m0", "ratio"),
    ("core.layer_share.m1", "ratio"),
    ("core.layer_share.m2", "ratio"),
    ("core.layer_share.m3", "ratio"),
    ("core.layer_share.m4", "ratio"),
    ("core.answers_pruned_rate", "ratio"),
    ("core.partials_created", "count"),
    ("core.estimator_s", "s"),
    ("core.algo1_s.m1", "s"),
    ("core.algo1_s.m2", "s"),
    ("core.algo1_s.m3", "s"),
    ("core.algo1_s.m4", "s"),
    ("core.algo1_candidates.m1", "count"),
    ("core.algo1_candidates.m2", "count"),
    ("core.algo1_candidates.m3", "count"),
    ("core.algo1_candidates.m4", "count"),
    // bisim
    ("bisim.materialize_s", "s"),
    // search
    ("search.index_build_s.banks", "s"),
    ("search.index_build_s.blinks", "s"),
    ("search.index_build_s.rclique", "s"),
    ("search.exec_ms.bkws", "ms"),
    ("search.exec_ms.rkws", "ms"),
    ("search.exec_ms.dkws", "ms"),
    // shard
    ("shard.plan_s", "s"),
    ("shard.build_s", "s"),
    ("shard.dup", "ratio"),
    ("shard.leg_p95_ms.max", "ms"),
    ("shard.leg_p95_ms.min", "ms"),
    // ingest
    ("ingest.apply_group_ms", "ms"),
    ("ingest.bundle_clone_ms", "ms"),
    ("ingest.patch_rate", "ratio"),
    ("ingest.rebuilt_layers", "count"),
    ("ingest.rebuilds", "count"),
    // store
    ("store.fsyncs_per_commit", "ratio"),
    ("store.wal_bytes_per_update", "B"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    // verify
    ("verify.admit_ms", "ms"),
    // datasets
    ("datasets.gen_s", "s"),
    ("datasets.query_pool_s", "s"),
    // the traced run itself
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead.query_p50_ms", "ms"),
    ("trace.overhead.refresh_ms", "ms"),
    // workload-specific end-to-end figures, from the untraced half
    ("e2e.error_rate", "ratio"),
    ("e2e.commit_p50_ms", "ms"),
    ("e2e.commit_p95_ms", "ms"),
    ("e2e.updates_per_s", "1/s"),
    ("e2e.build_s", "s"),
    ("e2e.recover_s", "s"),
    ("e2e.index_mb", "MB"),
];

/// Cores the process may use; build threads and the default service
/// worker count follow it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Keeps exactly the per-layer or the end-to-end metrics. A missing end-to-end metric is
/// an error; a missing per-layer metric reads 0 (its layer did no work
/// in this workload). A unit that disagrees with the list is an error.
pub fn complete(metrics: &mut Metrics, per_layer: bool) -> Result<(), String> {
    let expected = if per_layer { PER_LAYER } else { END_TO_END };
    let mut out = Metrics::default();
    for &(name, unit) in expected {
        match metrics.get_with_unit(name) {
            Some((value, got)) if got == unit => out.set(name, value, unit),
            Some((_, got)) => return Err(format!("metric {name} has unit {got}, expected {unit}")),
            None if per_layer => out.set(name, 0.0, unit),
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    *metrics = out;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units printed here are the ones `BENCHMARK.json`
    /// declares.
    #[test]
    fn lists_match_the_benchmark_manifest() {
        let manifest = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = manifest
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &manifest[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at =
                            entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), as_owned(END_TO_END));
        assert_eq!(declared("per_layer"), as_owned(PER_LAYER));
    }

    #[test]
    fn complete_fills_per_layer_zeros_and_rejects_missing_end_to_end() {
        let mut m = Metrics::default();
        m.set("service.coalesced", 3.0, "count");
        m.set("unlisted", 1.0, "s");
        complete(&mut m, true).unwrap();
        assert_eq!(m.get("service.coalesced"), Some(3.0));
        assert_eq!(m.get("shard.dup"), Some(0.0));
        assert_eq!(m.get("unlisted"), None);
        let mut e = Metrics::default();
        e.set("setup_s", 1.0, "s");
        assert!(complete(&mut e, false).is_err());
        let mut wrong = Metrics::default();
        wrong.set("shard.dup", 1.0, "s");
        assert!(complete(&mut wrong, true).is_err());
    }
}
