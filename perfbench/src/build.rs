//! `build`: the paper's Algo. 1 build plus a restart, on the knowledge
//! graph. Each cycle builds the hierarchy (`BiGIndex::build`), every
//! per-layer index, and saves the generation; then loads it back, admits
//! it as a snapshot and serves the request pool from it.

use crate::check;
use crate::load::closed_loop;
use crate::metrics::cores;
use crate::serving::{self, BuildSplit, Read, ReadOp};
use crate::trace::Trace;
use crate::util::{fnv1a, median, ms, peak_rss_mb, ratio, shuffle, timed, ScratchDir};
use crate::{Args, Outcome};
use bgi_datasets::Dataset;
use bgi_graph::stats::LabelSupport;
use bgi_search::blinks::BlinksParams;
use bgi_search::{Budget, RClique};
use bgi_service::{IndexSnapshot, QueryRequest, Service, ServiceConfig};
use bgi_store::bundle::encode_index;
use bgi_store::{IndexBundle, Store};
use big_index::compress::CompressEstimator;
use big_index::heuristic::greedy_configuration_threaded;
use big_index::{BiGIndex, BuildParams, EvalOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests served from each restarted snapshot.
const RESTART_READS: usize = 1024;
/// One client serves them: the pool is fixed, so its slowest requests
/// set the 99th percentile, and with two clients how those overlapped
/// changed with the seed's order and spread it by 0.45 of its median.
const RESTART_CLIENTS: usize = 1;

fn params() -> BuildParams {
    BuildParams {
        max_layers: serving::LAYERS,
        threads: cores(),
        ..BuildParams::default()
    }
}

/// What one build-and-restart cycle measured.
struct Cycle {
    build: Duration,
    recover: Duration,
    load: Duration,
    admit: Duration,
    digest: u64,
    index_bytes: u64,
    index: BiGIndex,
    reads: Vec<ReadOp>,
    read_wall: Duration,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                Ok(_) => e.metadata().map_or(0, |m| m.len()),
                Err(_) => 0,
            })
            .sum()
    })
}

/// One cycle: build, save, load, admit, then serve the pool once.
fn cycle(
    args: &Args,
    ds: &Dataset,
    pool: &[QueryRequest],
    out: &mut Outcome,
) -> Result<Cycle, String> {
    let store_dir = ScratchDir::new(&args.work_dir, "build-store").map_err(|e| e.to_string())?;
    let store = Store::open(store_dir.path()).map_err(|e| format!("store open: {e}"))?;
    let start = Instant::now();
    let index = BiGIndex::build(ds.graph.clone(), ds.ontology.clone(), &params());
    let bundle = IndexBundle::build_with_threads(
        index,
        BlinksParams::default(),
        RClique::default(),
        EvalOptions::default(),
        cores(),
    );
    store
        .save_with_threads(&bundle, cores())
        .map_err(|e| format!("store save: {e}"))?;
    let build = start.elapsed();
    let digest = fnv1a(&encode_index(&bundle.index));
    // A second build inside the run, from Algo. 1's configurations, must
    // encode to the same bytes (DESIGN §8); digests of separate runs are
    // printed so they can be compared too.
    let configs = bundle
        .index
        .layers()
        .iter()
        .map(|l| l.config.clone())
        .collect();
    let again = BiGIndex::build_with_configs(
        ds.graph.clone(),
        ds.ontology.clone(),
        configs,
        bundle.index.direction(),
    );
    if let Err(e) = check::identical_digests(&[digest, fnv1a(&encode_index(&again))]) {
        out.violation(format!("materializing Algo. 1's configurations again: {e}"));
    }
    drop(again);
    let index_bytes = dir_bytes(store_dir.path());
    let (loaded, load) = timed(|| store.load_latest());
    let (_, loaded) = loaded.map_err(|e| format!("store load: {e}"))?;
    if loaded != bundle {
        out.violation("the loaded bundle differs from the saved one".into());
    }
    let index = bundle.index.clone();
    drop(bundle);
    let (snap, admit) = timed(|| IndexSnapshot::from_bundle(loaded));
    let snap = Arc::new(snap.map_err(|e| format!("snapshot refused: {e}"))?);
    let service = Service::start(Arc::clone(&snap), ServiceConfig::default());
    let (reads, _, read_wall) = closed_loop(
        RESTART_CLIENTS,
        pool.len(),
        Duration::from_secs(120),
        Instant::now(),
        0,
        |seq, _| service.query(pool[seq].clone()).map(|r| Read::of(&r, true)),
    );
    drop(service);
    serving::count_ops(out, &reads);
    serving::check_reads_exact(
        out,
        &reads,
        |seq| (seq, pool[seq].clone()),
        |req| snap.execute(req, &Budget::unlimited()),
        &ds.graph,
        cores(),
    );
    Ok(Cycle {
        build,
        recover: load + admit,
        load,
        admit,
        digest,
        index_bytes,
        index,
        reads,
        read_wall,
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut gen_s = Vec::new();
    let mut pool_s = Vec::new();
    let mut state = None;
    for _ in 0..serving::SETUP_REPS {
        // The previous set-up's state is dropped before the next is built.
        drop(state.take());
        let start = Instant::now();
        let (ds, gen) = timed(serving::kg_dataset);
        let (pool, pool_time) = timed(|| serving::kg_pool(&ds, RESTART_READS));
        setups.push(start.elapsed().as_secs_f64());
        gen_s.push(gen.as_secs_f64());
        pool_s.push(pool_time.as_secs_f64());
        state = Some((ds, pool));
    }
    let (ds, mut pool) = state.expect("at least one set-up");
    // The run's seed orders the requests the restarted snapshots serve;
    // the dataset and the build do not depend on it.
    shuffle(&mut pool, &mut StdRng::seed_from_u64(args.seed));
    // One cycle outlasts the timed phase; more run only if cycles get
    // shorter than `--seconds`. The traced run times one.
    let started = Instant::now();
    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.is_empty() || (!args.trace && started.elapsed() < args.duration) {
        out.attempted += 1;
        match cycle(args, &ds, &pool, &mut out) {
            Ok(c) => {
                eprintln!(
                    "cycle {}: build {:?}, recover {:?}, index digest {:016x}, {} layers",
                    cycles.len(),
                    c.build,
                    c.recover,
                    c.digest,
                    c.index.num_layers()
                );
                cycles.push(c);
            }
            Err(e) => {
                out.failed += 1;
                out.violation(e);
                return out;
            }
        }
    }
    let rss = peak_rss_mb();
    let digests: Vec<u64> = cycles.iter().map(|c| c.digest).collect();
    if let Err(e) = check::identical_digests(&digests) {
        out.violation(e);
    }
    let reads: Vec<ReadOp> = cycles
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.reads))
        .collect();
    let secs = |f: fn(&Cycle) -> Duration| -> Vec<f64> {
        cycles.iter().map(|c| f(c).as_secs_f64()).collect()
    };
    let read_wall: Duration = cycles.iter().map(|c| c.read_wall).sum();
    let refresh: Vec<f64> = cycles.iter().map(|c| ms(c.build + c.recover)).collect();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), "s");
    m.set("peak_rss_mb", rss, "MB");
    m.set("refresh_ms", median(&refresh), "ms");
    serving::read_metrics(m, &reads, read_wall);
    m.set("datasets.gen_s", median(&gen_s), "s");
    m.set("datasets.query_pool_s", median(&pool_s), "s");
    m.set("e2e.build_s", median(&secs(|c| c.build)), "s");
    m.set("e2e.recover_s", median(&secs(|c| c.recover)), "s");
    m.set("store.load_s", median(&secs(|c| c.load)), "s");
    m.set("verify.admit_ms", median(&secs(|c| c.admit)) * 1e3, "ms");
    let index_mb: Vec<f64> = cycles.iter().map(|c| c.index_bytes as f64 / 1e6).collect();
    m.set("e2e.index_mb", median(&index_mb), "MB");
    if args.trace {
        traced(args, &ds, &cycles[0], &mut out);
    }
    let error_rate = ratio(out.failed as f64, out.attempted as f64);
    out.metrics.set("e2e.error_rate", error_rate, "ratio");
    out
}

/// The traced cycle: Algo. 1 re-timed layer by layer from `graph_at`,
/// then materialization with its configurations, each index family,
/// save, load and admission — one span per public call.
fn traced(args: &Args, ds: &Dataset, built: &Cycle, out: &mut Outcome) {
    let params = params();
    let threads = cores();
    let index = &built.index;
    let mut trace = Trace::new(Instant::now(), 0);
    let root = trace.open(0, None, "build.cycle");
    let mut estimator_s = 0.0;
    for m in 1..=index.num_layers() {
        let g = index.graph_at(m - 1);
        let (estimator, d, _) = trace.time(0, Some(root), "core.compress_estimator", || {
            CompressEstimator::new_threaded(g, &params.sampling, params.direction, threads)
        });
        estimator_s += d.as_secs_f64();
        let support = LabelSupport::new(g);
        let (config, d, _) = trace.time(0, Some(root), "core.greedy_configuration", || {
            greedy_configuration_threaded(
                g,
                &ds.ontology,
                &estimator,
                &support,
                &params.cost,
                threads,
            )
        });
        let candidates: usize = g
            .label_counts()
            .iter()
            .enumerate()
            .filter(|&(l, &c)| c > 0 && l < ds.ontology.num_labels())
            .map(|(l, _)| {
                ds.ontology
                    .direct_supertypes(bgi_graph::LabelId(l as u32))
                    .len()
            })
            .sum();
        out.metrics
            .set(format!("core.algo1_s.m{m}"), d.as_secs_f64(), "s");
        out.metrics.set(
            format!("core.algo1_candidates.m{m}"),
            candidates as f64,
            "count",
        );
        if config != index.layers()[m - 1].config {
            out.violation(format!(
                "Algo. 1 re-run on layer {} chose another configuration",
                m - 1
            ));
        }
    }
    out.metrics.set("core.estimator_s", estimator_s, "s");
    let configs = index.layers().iter().map(|l| l.config.clone()).collect();
    let (rebuilt, d, _) = trace.time(0, Some(root), "bisim.build_with_configs", || {
        BiGIndex::build_with_configs(
            ds.graph.clone(),
            ds.ontology.clone(),
            configs,
            params.direction,
        )
    });
    out.metrics.set("bisim.materialize_s", d.as_secs_f64(), "s");
    if let Err(e) = check::identical_digests(&[built.digest, fnv1a(&encode_index(&rebuilt))]) {
        out.violation(format!("materializing Algo. 1's configurations: {e}"));
    }
    let mut split = BuildSplit::default();
    let start = Instant::now();
    let bundle = serving::family_split_bundle(rebuilt, &mut split);
    trace.steps(
        0,
        root,
        start,
        &[
            ("search.banks_build_index", split.banks),
            ("search.blinks_build_index", split.blinks),
            ("search.rclique_build_index", split.rclique),
        ],
    );
    serving::record_split(&mut out.metrics, &split);
    let store_dir = match ScratchDir::new(&args.work_dir, "build-store") {
        Ok(d) => d,
        Err(e) => return out.violation(e.to_string()),
    };
    let store = match Store::open(store_dir.path()) {
        Ok(s) => s,
        Err(e) => return out.violation(format!("store open: {e}")),
    };
    let (saved, d, _) = trace.time(0, Some(root), "store.save", || {
        store.save_with_threads(&bundle, threads)
    });
    out.metrics.set("store.save_s", d.as_secs_f64(), "s");
    if let Err(e) = saved {
        return out.violation(format!("store save: {e}"));
    }
    drop(bundle);
    let (loaded, d, _) = trace.time(0, Some(root), "store.load_latest", || store.load_latest());
    out.metrics.set("store.load_s", d.as_secs_f64(), "s");
    let loaded = match loaded {
        Ok((_, b)) => b,
        Err(e) => return out.violation(format!("store load: {e}")),
    };
    let (snap, d, _) = trace.time(0, Some(root), "verify.from_bundle", || {
        IndexSnapshot::from_bundle(loaded)
    });
    out.metrics.set("verify.admit_ms", ms(d), "ms");
    if let Err(e) = snap {
        out.violation(format!("snapshot refused: {e}"));
    }
    trace.close(root);
    let spans = trace.spans();
    let total = spans[0].duration();
    let children: Duration = spans[1..].iter().map(crate::trace::Span::duration).sum();
    out.metrics.set(
        "trace.coverage",
        ratio(children.as_secs_f64(), total.as_secs_f64()),
        "ratio",
    );
    let untraced = out.metrics.get("refresh_ms").unwrap_or(0.0);
    out.metrics
        .set("trace.overhead.refresh_ms", ms(total) - untraced, "ms");
    crate::trace::finish(args, out, &trace);
}
