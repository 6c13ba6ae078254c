//! Pieces the serving workloads share: the knowledge-graph dataset and
//! its serving build, the read request stream, read metrics, the
//! reference check, and the traced replay of one request's stages.

use crate::check;
use crate::load::Op;
use crate::trace::Trace;
use crate::util::{median, ms, quantile, ratio, timed, Metrics};
use crate::Outcome;
use bgi_datasets::zipf::Zipf;
use bgi_datasets::{Dataset, DatasetSpec};
use bgi_graph::DiGraph;
use bgi_search::blinks::BlinksParams;
use bgi_search::{AnswerGraph, Banks, Blinks, Budget, KeywordQuery, KeywordSearch, RClique};
use bgi_service::snapshot::ExecOutcome;
use bgi_service::{IndexSnapshot, QueryError, QueryRequest, QueryResponse, Semantics};
use bgi_store::IndexBundle;
use big_index::eval::{EvalStats, StepTimings};
use big_index::{eval_at_layer, BiGIndex, EvalOptions, RealizerKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Vertices of the knowledge-graph workloads' dataset.
pub const KG_SCALE: usize = 10_000;
/// Hierarchy layers of every build.
pub const LAYERS: usize = 4;
/// `d_max` of the knowledge-graph requests.
pub const DMAX: u32 = 4;
/// Answers wanted per request.
pub const K: usize = 10;
/// Distinct requests asked of the pool generator (it may return fewer).
pub const POOL: usize = 2048;
/// Zipf exponent of the read stream over the pool.
pub const ZIPF_S: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Stream positions generated; more than any run consumes.
pub const STREAM_LEN: usize = 400_000;
/// Closed-loop read clients.
pub const READ_CLIENTS: usize = 2;

/// The knowledge-graph dataset. It does not depend on the run's seed:
/// runs on different seeds measure the same data.
pub fn kg_dataset() -> Dataset {
    DatasetSpec::yago_like(KG_SCALE).generate()
}

/// Up to `want` distinct requests, mixed bkws/rkws/dkws; fixed like the
/// dataset.
pub fn kg_pool(ds: &Dataset, want: usize) -> Vec<QueryRequest> {
    bgi_bench::experiments::throughput::seeded_requests(
        ds,
        DMAX,
        K,
        bgi_bench::setup::DEFAULT_WORKLOAD_SEED,
        want,
    )
}

/// Pool positions drawn with a Zipf distribution (rank = pool order);
/// the run's seed drives the draws.
pub fn zipf_stream(pool_len: usize, seed: u64, len: usize) -> Vec<usize> {
    let zipf = Zipf::new(pool_len.max(1), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0f21_9300);
    (0..len).map(|_| zipf.sample(&mut rng)).collect()
}

/// Where the time of a serving build went, per public call.
#[derive(Default, Clone, Copy)]
pub struct BuildSplit {
    /// `BiGIndex::build_with_configs`.
    pub materialize: Duration,
    /// Per-layer index builds, per family (zero unless split).
    pub banks: Duration,
    /// BLINKS indexes.
    pub blinks: Duration,
    /// r-clique indexes.
    pub rclique: Duration,
    /// The whole build.
    pub total: Duration,
}

/// The serving build of `bgi serve` and `save-index`: the greedy
/// full-step schedule, then every per-layer index. With `split`, the
/// three index families are built one after another (serially) so each
/// gets its own time; otherwise `IndexBundle::build_with_threads`.
pub fn serving_bundle(ds: &Dataset, threads: usize, split: bool) -> (IndexBundle, BuildSplit) {
    let start = Instant::now();
    let mut s = BuildSplit::default();
    let configs = big_index::greedy_full_step_configs(
        &ds.graph,
        &ds.ontology,
        LAYERS,
        bgi_bisim::BisimDirection::Forward,
    );
    let (index, d) = timed(|| {
        BiGIndex::build_with_configs(
            ds.graph.clone(),
            ds.ontology.clone(),
            configs,
            bgi_bisim::BisimDirection::Forward,
        )
    });
    s.materialize = d;
    let bundle = if split {
        family_split_bundle(index, &mut s)
    } else {
        IndexBundle::build_with_threads(
            index,
            BlinksParams::default(),
            RClique::default(),
            EvalOptions::default(),
            threads,
        )
    };
    s.total = start.elapsed();
    (bundle, s)
}

/// Builds each per-layer index family in turn, timing each.
pub fn family_split_bundle(index: BiGIndex, s: &mut BuildSplit) -> IndexBundle {
    let layers = 0..=index.num_layers();
    let blinks_algo = Blinks::new(BlinksParams::default());
    let rclique_algo = RClique::default();
    let (banks, d) = timed(|| {
        layers
            .clone()
            .map(|m| Banks.build_index(index.graph_at(m)))
            .collect()
    });
    s.banks = d;
    let (blinks, d) = timed(|| {
        layers
            .clone()
            .map(|m| blinks_algo.build_index(index.graph_at(m)))
            .collect()
    });
    s.blinks = d;
    let (rclique, d) = timed(|| {
        layers
            .clone()
            .map(|m| rclique_algo.build_index(index.graph_at(m)))
            .collect()
    });
    s.rclique = d;
    IndexBundle {
        index,
        banks,
        blinks,
        rclique,
        blinks_params: BlinksParams::default(),
        rclique_params: rclique_algo,
        eval: EvalOptions::default(),
    }
}

/// Records the per-family index build times.
pub fn record_split(m: &mut Metrics, s: &BuildSplit) {
    m.set("search.index_build_s.banks", s.banks.as_secs_f64(), "s");
    m.set("search.index_build_s.blinks", s.blinks.as_secs_f64(), "s");
    m.set("search.index_build_s.rclique", s.rclique.as_secs_f64(), "s");
}

/// What a run keeps of one served read.
pub struct Read {
    /// Digest of the answers.
    pub digest: u64,
    /// The answers themselves, kept for the first read of each request.
    pub answers: Option<Vec<AnswerGraph>>,
}

impl Read {
    /// Keeps the digest of `resp`, and its answers when `keep`.
    pub fn of(resp: &QueryResponse, keep: bool) -> Read {
        Read {
            digest: check::answers_digest(&resp.answers),
            answers: keep.then(|| resp.answers.clone()),
        }
    }
}

/// One read as the client saw it.
pub type ReadOp = Op<Result<Read, QueryError>>;

/// `query_p50_ms`, `query_p99_ms` and `query_qps` of a read phase.
pub fn read_metrics<T, E>(m: &mut Metrics, ops: &[Op<Result<T, E>>], wall: Duration) {
    let lat: Vec<f64> = ops.iter().map(|o| ms(o.latency)).collect();
    let served = ops.iter().filter(|o| o.out.is_ok()).count();
    m.set("query_p50_ms", median(&lat), "ms");
    m.set("query_p99_ms", quantile(&lat, 0.99), "ms");
    m.set("query_qps", ratio(served as f64, wall.as_secs_f64()), "1/s");
}

/// Counts operations as attempted, and failed ones as failures.
pub fn count_ops<T, E: std::fmt::Debug>(outcome: &mut Outcome, ops: &[Op<Result<T, E>>]) {
    outcome.attempted += ops.len() as u64;
    let mut first = None;
    for o in ops {
        if let Err(e) = &o.out {
            outcome.failed += 1;
            first.get_or_insert_with(|| format!("operation {} failed: {e:?}", o.seq));
        }
    }
    if let Some(v) = first {
        outcome.violation(v);
    }
}

/// Checks every served read against the reference answer of its
/// request, computed by `execute` (a direct, unbudgeted execution) once
/// per distinct request: every read by digest, and each kept answer
/// list in full and against the data graph `g`.
pub fn check_reads_exact(
    outcome: &mut Outcome,
    ops: &[ReadOp],
    request_of: impl Fn(usize) -> (usize, QueryRequest),
    execute: impl Fn(&QueryRequest) -> Result<ExecOutcome, QueryError> + Sync,
    g: &DiGraph,
    threads: usize,
) {
    let mut distinct: BTreeMap<usize, QueryRequest> = BTreeMap::new();
    for o in ops {
        let (key, req) = request_of(o.seq);
        distinct.entry(key).or_insert(req);
    }
    let keyed: Vec<(usize, QueryRequest)> = distinct.into_iter().collect();
    let answers = bgi_graph::par::par_map(threads, keyed.len(), |i| execute(&keyed[i].1));
    let reference: BTreeMap<usize, Result<ExecOutcome, QueryError>> =
        keyed.iter().map(|(k, _)| *k).zip(answers).collect();
    let mut bad = 0u64;
    let mut first = None;
    for o in ops {
        let Ok(read) = &o.out else { continue };
        let (key, req) = request_of(o.seq);
        let verdict = match &reference[&key] {
            Ok(r) if read.digest != check::answers_digest(&r.answers) => {
                Err("answers differ from the reference execution".to_string())
            }
            Ok(r) => match &read.answers {
                Some(answers) => check::exact_answers(answers, &r.answers, g, &req.keywords),
                None => Ok(()),
            },
            Err(e) => Err(format!("reference execution failed: {e:?}")),
        };
        if let Err(e) = verdict {
            bad += 1;
            first.get_or_insert_with(|| format!("read {} ({}): {e}", o.seq, req.semantics));
        }
    }
    outcome.failed += bad;
    if let Some(v) = first {
        outcome.violation(format!("{bad} read(s) failed the answer check; first: {v}"));
    }
}

/// What the traced replay of one cache miss measured.
pub struct StageSample {
    /// The request's semantics.
    pub semantics: Semantics,
    /// Client latency of the `Service::query` call.
    pub client: Duration,
    /// Direct `IndexSnapshot::execute` of the same request.
    pub exec: Duration,
    /// The layer evaluated at.
    pub layer: usize,
    /// Whether the summary layer realized nothing.
    pub fell_back: bool,
    /// `optimal_layer` (Formula 4).
    pub layer_choice: Duration,
    /// `StepTimings` of `eval_at_layer`, fallback included.
    pub timings: StepTimings,
    /// `EvalStats` of `eval_at_layer`, fallback included.
    pub stats: EvalStats,
}

/// Replays one request against the snapshot and, call by call, against
/// the bundle it was admitted from, recording spans under `root`. Fails
/// when the stage-by-stage answers differ from the direct execution.
pub fn replay_stages(
    snap: &IndexSnapshot,
    bundle: &IndexBundle,
    req: &QueryRequest,
    client: Duration,
    trace: &mut Trace,
    request_id: u64,
    root: u64,
) -> Result<StageSample, String> {
    let unlimited = Budget::unlimited();
    let (direct, exec, _) = trace.time(request_id, Some(root), "service.snapshot_execute", || {
        snap.execute(req, &unlimited)
    });
    let direct = direct.map_err(|e| format!("direct execution failed: {e:?}"))?;
    let query = KeywordQuery::new(req.keywords.clone(), req.dmax);
    let mut opts = bundle.eval;
    if req.semantics == Semantics::Dkws {
        opts.realizer = RealizerKind::StructuralThenDistance;
    }
    let (m, layer_choice, _) = trace.time(request_id, Some(root), "core.optimal_layer", || {
        big_index::query_gen::optimal_layer(&bundle.index, &query, opts.beta)
    });
    let eval = |layer: usize, name: &'static str, trace: &mut Trace| {
        let start = Instant::now();
        let (r, _, id) = trace.time(request_id, Some(root), name, || {
            eval_with(bundle, req.semantics, &query, req.k, layer, &opts)
        });
        trace.steps(
            request_id,
            id,
            start,
            &[
                ("core.search", r.timings.search),
                ("core.spec_prune", r.timings.spec_prune),
                ("core.answer_gen", r.timings.answer_gen),
            ],
        );
        r
    };
    let mut result = eval(m, "core.eval_at_layer", trace);
    let mut timings = result.timings;
    let mut stats = result.stats;
    let fell_back = m > 0 && result.answers.is_empty();
    if fell_back {
        result = eval(0, "core.eval_at_layer_fallback", trace);
        timings.absorb(&result.timings);
        stats.generalized_answers += result.stats.generalized_answers;
        stats.answers_pruned += result.stats.answers_pruned;
        stats.partials_created += result.stats.partials_created;
    }
    if result.answers != direct.answers {
        return Err(format!(
            "stage-by-stage replay at layer {m} gave {} answer(s), direct execution {}",
            result.answers.len(),
            direct.answers.len()
        ));
    }
    Ok(StageSample {
        semantics: req.semantics,
        client,
        exec,
        layer: direct.layer,
        fell_back: direct.fell_back,
        layer_choice,
        timings,
        stats,
    })
}

fn eval_with(
    bundle: &IndexBundle,
    semantics: Semantics,
    query: &KeywordQuery,
    k: usize,
    m: usize,
    opts: &EvalOptions,
) -> big_index::EvalResult {
    let index = &bundle.index;
    match semantics {
        Semantics::Bkws => eval_at_layer(index, &Banks, &bundle.banks[m], query, k, m, opts),
        Semantics::Rkws => {
            let algo = Blinks::new(bundle.blinks_params);
            eval_at_layer(index, &algo, &bundle.blinks[m], query, k, m, opts)
        }
        Semantics::Dkws => {
            let algo = bundle.rclique_params;
            eval_at_layer(index, &algo, &bundle.rclique[m], query, k, m, opts)
        }
    }
}

/// The `service.*`, `core.*` and `search.exec_ms.*` metrics of the
/// traced misses, and `trace.coverage`: the share of the misses' client
/// latency that the replayed stage spans cover.
pub fn stage_metrics(m: &mut Metrics, samples: &[StageSample]) {
    let n = samples.len() as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let overhead: Vec<f64> = samples.iter().map(|s| us(s.client) - us(s.exec)).collect();
    m.set("service.overhead_us", median(&overhead), "us");
    let fallbacks = samples.iter().filter(|s| s.fell_back).count() as f64;
    m.set("service.fallback_rate", ratio(fallbacks, n), "ratio");
    let choice: Vec<f64> = samples.iter().map(|s| us(s.layer_choice)).collect();
    m.set("core.layer_choice_us", median(&choice), "us");
    let sum = |f: fn(&StepTimings) -> Duration| {
        samples
            .iter()
            .map(|s| f(&s.timings).as_secs_f64())
            .sum::<f64>()
    };
    m.set("core.search_s", sum(|t| t.search), "s");
    m.set("core.spec_prune_s", sum(|t| t.spec_prune), "s");
    m.set("core.answer_gen_s", sum(|t| t.answer_gen), "s");
    for layer in 0..=LAYERS {
        let at = samples.iter().filter(|s| s.layer == layer).count() as f64;
        m.set(format!("core.layer_share.m{layer}"), ratio(at, n), "ratio");
    }
    let generalized: usize = samples.iter().map(|s| s.stats.generalized_answers).sum();
    let pruned: usize = samples.iter().map(|s| s.stats.answers_pruned).sum();
    m.set(
        "core.answers_pruned_rate",
        ratio(pruned as f64, generalized as f64),
        "ratio",
    );
    let partials: usize = samples.iter().map(|s| s.stats.partials_created).sum();
    m.set("core.partials_created", partials as f64, "count");
    for sem in Semantics::ALL {
        let exec: Vec<f64> = samples
            .iter()
            .filter(|s| s.semantics == sem)
            .map(|s| ms(s.exec))
            .collect();
        m.set(format!("search.exec_ms.{sem}"), median(&exec), "ms");
    }
    let covered: f64 = samples
        .iter()
        .map(|s| {
            (s.layer_choice + s.timings.total())
                .min(s.client)
                .as_secs_f64()
        })
        .sum();
    let client: f64 = samples.iter().map(|s| s.client.as_secs_f64()).sum();
    m.set("trace.coverage", ratio(covered, client), "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The read check accepts served answers equal to the reference and
    /// counts a read whose answers differ as a failure.
    #[test]
    fn read_check_counts_a_wrong_answer_as_a_failure() {
        let ds = DatasetSpec::yago_like(400).generate();
        let (bundle, _) = serving_bundle(&ds, 1, false);
        let snap = IndexSnapshot::from_bundle(bundle).unwrap();
        let pool = kg_pool(&ds, 64);
        let req = pool
            .iter()
            .find(|r| {
                snap.execute(r, &Budget::unlimited())
                    .is_ok_and(|o| !o.answers.is_empty())
            })
            .expect("a request with answers")
            .clone();
        let answers = snap.execute(&req, &Budget::unlimited()).unwrap().answers;
        let read = |answers: Vec<AnswerGraph>| Op {
            seq: 0,
            latency: Duration::ZERO,
            out: Ok(Read {
                digest: check::answers_digest(&answers),
                answers: Some(answers),
            }),
        };
        let run = |op: ReadOp| {
            let mut out = Outcome::default();
            check_reads_exact(
                &mut out,
                &[op],
                |_| (0, req.clone()),
                |r| snap.execute(r, &Budget::unlimited()),
                &ds.graph,
                1,
            );
            out
        };
        let good = run(read(answers.clone()));
        assert_eq!((good.failed, good.violations.len()), (0, 0));
        let mut wrong = answers;
        wrong.pop();
        let bad = run(read(wrong));
        assert_eq!((bad.failed, bad.violations.len()), (1, 1));
    }
}
