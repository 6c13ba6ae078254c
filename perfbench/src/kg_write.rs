//! `kg-write`: writes beside reads on the knowledge graph, backed by a
//! WAL store. One writer commits one update per call through the
//! group-commit path (every commit fsyncs); one reader replays the
//! `kg-read` stream.

use crate::check;
use crate::load::{client, Op};
use crate::metrics::cores;
use crate::serving::{self, Read};
use crate::trace::Trace;
use crate::util::{median, ms, peak_rss_mb, quantile, ratio, timed, ScratchDir};
use crate::{Args, Outcome};
use bgi_datasets::{update_stream, UpdateMix, UpdateOp};
use bgi_graph::{LabelId, VId};
use bgi_ingest::{Engine, EngineConfig, IngestUpdate, RebuildPolicy};
use bgi_service::{
    ApplyError, ApplyReport, IndexSnapshot, QueryError, QueryRequest, Semantics, Service,
    ServiceConfig, WriteHub,
};
use bgi_store::{IndexBundle, Store};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Updates generated; more than any run commits.
const UPDATES: usize = 4_000;

struct Deployment {
    /// The bundle the engine started from; clones share its sections.
    initial: IndexBundle,
    pool: Vec<QueryRequest>,
    stream: Vec<usize>,
    updates: Vec<IngestUpdate>,
    /// Label of every vertex the update stream can create, by id.
    labels: Vec<LabelId>,
    service: Service,
    hub: WriteHub,
    store: ScratchDir,
}

fn as_ingest(op: &UpdateOp) -> IngestUpdate {
    match *op {
        UpdateOp::InsertEdge { src, dst } => IngestUpdate::InsertEdge { src, dst },
        UpdateOp::DeleteEdge { src, dst } => IngestUpdate::DeleteEdge { src, dst },
        UpdateOp::AddVertex { label } => IngestUpdate::AddVertex { label },
    }
}

/// The engine runs without drift-triggered background rebuilds. With
/// the default policy a full rebuild starts after about 100 commits,
/// 5-6 s into an 8 s run, and runs for about 80 more commits: whether
/// and how long it overlapped the timed phase depended on the machine's
/// speed, and the read and commit figures spread by 0.35-0.46 of their
/// median from run to run. The rebuild path is left out of this
/// workload; `ingest.rebuilds` reads 0.
fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: cores(),
        policy: RebuildPolicy {
            max_cost_increase: f64::INFINITY,
            max_updates: usize::MAX,
            ..RebuildPolicy::default()
        },
    }
}

fn set_up_once(args: &Args, times: &mut SetupTimes) -> Result<Deployment, String> {
    let start = Instant::now();
    let (ds, gen) = timed(serving::kg_dataset);
    let (pool, pool_time) = timed(|| serving::kg_pool(&ds, serving::POOL));
    let (bundle, _) = serving::serving_bundle(&ds, cores(), false);
    let store = ScratchDir::new(&args.work_dir, "kg-write-store").map_err(|e| e.to_string())?;
    let opened = Store::open(store.path()).map_err(|e| format!("store open: {e}"))?;
    let (engine, replayed) = Engine::with_wal(bundle.clone(), engine_config(), &opened)
        .map_err(|e| format!("engine start: {e}"))?;
    if replayed != 0 {
        return Err(format!("a fresh store replayed {replayed} update(s)"));
    }
    let snap = IndexSnapshot::from_bundle(engine.bundle().clone())
        .map_err(|e| format!("snapshot refused: {e}"))?;
    let service = Service::start(Arc::new(snap), ServiceConfig::default());
    let ops = update_stream(&ds.graph, args.seed, UPDATES, UpdateMix::default());
    let mut labels = ds.graph.labels().to_vec();
    labels.extend(ops.iter().filter_map(|op| match *op {
        UpdateOp::AddVertex { label } => Some(LabelId(label)),
        _ => None,
    }));
    // The reader replays the kg-read stream without its dkws requests:
    // after each commit they recompute r-clique balls lazily and take
    // 15-400 ms, so a few hundred of them per run made the read figures
    // spread by more than their bound from run to run.
    let mut stream = serving::zipf_stream(pool.len(), args.seed, serving::STREAM_LEN);
    stream.retain(|&k| pool[k].semantics != Semantics::Dkws);
    times.total.push(start.elapsed().as_secs_f64());
    times.gen_s.push(gen.as_secs_f64());
    times.pool_s.push(pool_time.as_secs_f64());
    Ok(Deployment {
        initial: bundle,
        pool,
        stream,
        updates: ops.iter().map(as_ingest).collect(),
        labels,
        service,
        hub: WriteHub::new(engine),
        store,
    })
}

#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    gen_s: Vec<f64>,
    pool_s: Vec<f64>,
}

/// A read under concurrent writes: its answers' keyword labels checked.
type CheckedRead = Result<(Read, Result<(), String>), QueryError>;

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut times = SetupTimes::default();
    let mut state = None;
    for _ in 0..serving::SETUP_REPS {
        // The previous set-up's state is dropped before the next is built.
        drop(state.take());
        match set_up_once(args, &mut times) {
            Ok(d) => state = Some(d),
            Err(e) => {
                out.violation(e);
                return out;
            }
        }
    }
    let d = state.expect("at least one set-up");
    let untraced = if args.trace {
        args.duration / 2
    } else {
        args.duration
    };
    let (commits, reads, wall) = phase(&d, untraced, 0, None);
    let rss = peak_rss_mb();
    let stats = d.service.stats();
    let acked_untraced = commits.iter().filter(|c| c.out.is_ok()).count();
    record(&mut out, &commits, &reads, wall);
    let m = &mut out.metrics;
    m.set("setup_s", median(&times.total), "s");
    m.set("peak_rss_mb", rss, "MB");
    m.set("datasets.gen_s", median(&times.gen_s), "s");
    m.set("datasets.query_pool_s", median(&times.pool_s), "s");
    m.set("service.cache_hit_rate", stats.cache.hit_rate(), "ratio");
    m.set(
        "service.cache_invalidated",
        stats.cache.invalidated as f64,
        "count",
    );
    m.set("service.coalesced", stats.coalesced as f64, "count");
    m.set("ingest.rebuilds", stats.ingest_rebuilds as f64, "count");
    let started = commits
        .iter()
        .filter(|c| c.out.as_ref().is_ok_and(|r| r.rebuild_started))
        .count();
    eprintln!(
        "committed {acked_untraced} update(s) beside {} read(s) in {wall:?}; {} swaps, \
         {started} rebuild(s) started, {} adopted, cache hit rate {:.3}",
        reads.len(),
        stats.index_swaps,
        stats.ingest_rebuilds,
        stats.cache.hit_rate()
    );
    let mut acked = acked_untraced;
    if args.trace {
        acked += traced(args, &d, &mut out, args.duration - untraced, acked_untraced);
    }
    durability(&mut out, d, acked);
    let error_rate = ratio(out.failed as f64, out.attempted as f64);
    out.metrics.set("e2e.error_rate", error_rate, "ratio");
    out
}

/// The writer's sequence for one update when traced: the public calls a
/// grouped commit makes, one span each.
struct TracedCommit {
    apply_group: Duration,
    clone: Duration,
    admit: Duration,
    swap: Duration,
}

/// One timed phase: a writer and a reader, each a closed loop. The
/// writer starts at update `first`; with `traced`, it drives the commit
/// sequence call by call instead of `Service::apply_updates_grouped`.
#[allow(clippy::type_complexity)]
fn phase(
    d: &Deployment,
    duration: Duration,
    first: usize,
    traced: Option<(&mut Trace, &mut Vec<TracedCommit>)>,
) -> (
    Vec<Op<Result<ApplyReport, ApplyError>>>,
    Vec<Op<CheckedRead>>,
    Duration,
) {
    let start = Instant::now();
    let deadline = start + duration;
    let origin = start;
    let (wnext, rnext) = (AtomicUsize::new(first), AtomicUsize::new(0));
    let label_of = |v: VId| d.labels.get(v.index()).copied();
    let (commits, reads) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut trace = Trace::new(origin, 1);
            client(&rnext, d.stream.len(), deadline, &mut trace, |seq, _| {
                let req = &d.pool[d.stream[seq]];
                d.service.query(req.clone()).map(|r| {
                    let verdict = check::keyword_labels(&r.answers, label_of, &req.keywords);
                    (Read::of(&r, false), verdict)
                })
            })
        });
        let commits = match traced {
            None => {
                let mut trace = Trace::new(origin, 0);
                client(&wnext, d.updates.len(), deadline, &mut trace, |seq, _| {
                    d.service
                        .apply_updates_grouped(&d.hub, vec![d.updates[seq]])
                })
            }
            Some((trace, samples)) => {
                client(&wnext, d.updates.len(), deadline, trace, |seq, trace| {
                    let (result, sample) = traced_commit(d, seq, trace);
                    samples.extend(sample);
                    result
                })
            }
        };
        (commits, reader.join().expect("the reader panicked"))
    });
    (commits, reads, start.elapsed())
}

fn traced_commit(
    d: &Deployment,
    seq: usize,
    trace: &mut Trace,
) -> (Result<ApplyReport, ApplyError>, Option<TracedCommit>) {
    let id = seq as u64;
    let root = trace.open(id, None, "writer.commit");
    let batch = vec![d.updates[seq]];
    let (applied, bundle, apply_group, clone) = d.hub.with_engine(|engine| {
        let (applied, apply_group, _) = trace.time(id, Some(root), "ingest.apply_group", || {
            engine.apply_group(std::slice::from_ref(&batch))
        });
        let (bundle, clone, _) = trace.time(id, Some(root), "ingest.bundle_clone", || {
            engine.bundle().clone()
        });
        (applied, bundle, apply_group, clone)
    });
    let outcome = match applied {
        Ok(mut outcomes) => outcomes.remove(0),
        Err(e) => return (Err(ApplyError::Ingest(e)), None),
    };
    let (snap, admit, _) = trace.time(id, Some(root), "verify.from_bundle", || {
        IndexSnapshot::from_bundle(bundle)
    });
    let snap = match snap {
        Ok(s) => s,
        Err(e) => return (Err(ApplyError::Snapshot(e)), None),
    };
    let ((), swap, _) = trace.time(id, Some(root), "service.swap_snapshot", || {
        d.service.swap_snapshot(Arc::new(snap));
    });
    trace.close(root);
    let report = ApplyReport {
        outcome,
        rebuilt: false,
        rebuild_started: false,
    };
    let sample = TracedCommit {
        apply_group,
        clone,
        admit,
        swap,
    };
    (Ok(report), Some(sample))
}

/// Counts, checks and records one phase's operations.
fn record(
    out: &mut Outcome,
    commits: &[Op<Result<ApplyReport, ApplyError>>],
    reads: &[Op<CheckedRead>],
    wall: Duration,
) {
    serving::count_ops(out, commits);
    serving::count_ops(out, reads);
    let mut bad = 0u64;
    let mut first = None;
    for r in reads {
        if let Ok((_, Err(e))) = &r.out {
            bad += 1;
            first.get_or_insert_with(|| format!("read {}: {e}", r.seq));
        }
    }
    out.failed += bad;
    if let Some(v) = first {
        out.violation(format!("{bad} read(s) failed the label check; first: {v}"));
    }
    let lat: Vec<f64> = commits.iter().map(|c| ms(c.latency)).collect();
    let reports: Vec<&ApplyReport> = commits.iter().filter_map(|c| c.out.as_ref().ok()).collect();
    let patched: usize = reports.iter().map(|r| r.outcome.patched_layers).sum();
    let rebuilt: usize = reports.iter().map(|r| r.outcome.rebuilt_layers).sum();
    let m = &mut out.metrics;
    serving::read_metrics(m, reads, wall);
    m.set("refresh_ms", median(&lat), "ms");
    m.set("e2e.commit_p50_ms", median(&lat), "ms");
    m.set("e2e.commit_p95_ms", quantile(&lat, 0.95), "ms");
    m.set(
        "e2e.updates_per_s",
        ratio(reports.len() as f64, wall.as_secs_f64()),
        "1/s",
    );
    m.set(
        "ingest.patch_rate",
        ratio(patched as f64, (patched + rebuilt) as f64),
        "ratio",
    );
    m.set("ingest.rebuilt_layers", rebuilt as f64, "count");
}

/// The traced half: the writer drives the commit sequence call by call.
/// Returns the updates it committed.
fn traced(
    args: &Args,
    d: &Deployment,
    out: &mut Outcome,
    duration: Duration,
    first: usize,
) -> usize {
    let mut trace = Trace::new(Instant::now(), 0);
    let mut samples = Vec::new();
    let (commits, reads, wall) = phase(d, duration, first, Some((&mut trace, &mut samples)));
    let acked = commits.iter().filter(|c| c.out.is_ok()).count();
    let untraced_p50 = out.metrics.get("query_p50_ms").unwrap_or(0.0);
    let untraced_refresh = out.metrics.get("refresh_ms").unwrap_or(0.0);
    let mut traced_metrics = Outcome::default();
    record(&mut traced_metrics, &commits, &reads, wall);
    out.attempted += traced_metrics.attempted;
    out.failed += traced_metrics.failed;
    out.violations.extend(traced_metrics.violations);
    let tm = &traced_metrics.metrics;
    let m = &mut out.metrics;
    m.set(
        "trace.overhead.query_p50_ms",
        tm.get("query_p50_ms").unwrap_or(0.0) - untraced_p50,
        "ms",
    );
    m.set(
        "trace.overhead.refresh_ms",
        tm.get("refresh_ms").unwrap_or(0.0) - untraced_refresh,
        "ms",
    );
    let pick = |f: fn(&TracedCommit) -> Duration| -> f64 {
        median(&samples.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
    };
    m.set("ingest.apply_group_ms", pick(|s| s.apply_group), "ms");
    m.set("ingest.bundle_clone_ms", pick(|s| s.clone), "ms");
    m.set("verify.admit_ms", pick(|s| s.admit), "ms");
    m.set("service.swap_ms", pick(|s| s.swap), "ms");
    let covered: f64 = samples
        .iter()
        .map(|s| (s.apply_group + s.clone + s.admit + s.swap).as_secs_f64())
        .sum();
    let client: f64 = commits
        .iter()
        .filter(|c| c.out.is_ok())
        .map(|c| c.latency.as_secs_f64())
        .sum();
    m.set("trace.coverage", ratio(covered, client), "ratio");
    // The calls above must have published exactly the engine's state.
    let served = d.service.snapshot().expect("a monolithic snapshot");
    let same = d.hub.with_engine(|e| served.index() == e.index());
    if !same {
        out.violation(
            "the traced commit sequence served a different index than it committed".into(),
        );
    }
    crate::trace::finish(args, out, &trace);
    acked
}

/// Reopens the store after the run and replays its log into a fresh
/// engine started from the set-up's bundle: the recovered graph must
/// equal the live one, so every acknowledged update survived. The same
/// updates applied as one batch must give the same graph too.
fn durability(out: &mut Outcome, d: Deployment, acked: usize) {
    let Deployment {
        initial: bundle,
        service,
        hub,
        store,
        updates,
        ..
    } = d;
    drop(service);
    let engine = hub.into_engine();
    let live = engine.index().base().clone();
    let fsyncs = engine.wal_fsyncs();
    drop(engine);
    let wal_bytes = std::fs::metadata(store.path().join("wal.log")).map_or(0, |m| m.len());
    let m = &mut out.metrics;
    m.set(
        "store.fsyncs_per_commit",
        ratio(fsyncs as f64, acked as f64),
        "ratio",
    );
    m.set(
        "store.wal_bytes_per_update",
        ratio(wal_bytes as f64, acked as f64),
        "B",
    );
    let reopened = match Store::open(store.path()) {
        Ok(s) => s,
        Err(e) => return out.violation(format!("store reopen: {e}")),
    };
    let mut batch_engine = match Engine::new(bundle.clone(), engine_config()) {
        Ok(e) => e,
        Err(e) => return out.violation(format!("engine start: {e}")),
    };
    match Engine::with_wal(bundle, engine_config(), &reopened) {
        Ok((recovered, replayed)) => {
            if replayed != acked {
                out.violation(format!(
                    "replayed {replayed} update(s), {acked} were acknowledged"
                ));
            }
            if let Err(e) = check::same_graph(&live, recovered.index().base()) {
                out.violation(format!("durability: {e}"));
            }
        }
        Err(e) => out.violation(format!("WAL replay: {e}")),
    }
    match batch_engine.apply_batch(&updates[..acked]) {
        Ok(_) => {
            if let Err(e) = check::same_graph(&live, batch_engine.index().base()) {
                out.violation(format!(
                    "committed state differs from one batch of the same updates: {e}"
                ));
            }
        }
        Err(e) => out.violation(format!("batch replay: {e}")),
    }
    eprintln!("durability: {acked} acknowledged update(s) recovered, {fsyncs} fsync(s)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgi_datasets::DatasetSpec;
    use std::path::Path;

    /// The durability check passes on an intact log and fails once the
    /// log loses an acknowledged update.
    #[test]
    fn durability_check_fails_when_the_log_loses_an_update() {
        let ds = DatasetSpec::yago_like(400).generate();
        let (bundle, _) = serving::serving_bundle(&ds, 1, false);
        let dir = ScratchDir::new(Path::new(".perfbench"), "test-durability").unwrap();
        let store = Store::open(dir.path()).unwrap();
        let config = EngineConfig::default();
        let (mut engine, _) = Engine::with_wal(bundle.clone(), config, &store).unwrap();
        let ops = update_stream(&ds.graph, 5, 6, UpdateMix::default());
        for op in &ops {
            engine.apply_group(&[vec![as_ingest(op)]]).unwrap();
        }
        let live = engine.index().base().clone();
        drop(engine);

        let reopen = || Engine::with_wal(bundle.clone(), config, &Store::open(dir.path()).unwrap());
        let (recovered, replayed) = reopen().unwrap();
        assert_eq!(replayed, ops.len());
        assert!(check::same_graph(&live, recovered.index().base()).is_ok());
        drop(recovered);

        let wal = dir.path().join("wal.log");
        let len = std::fs::metadata(&wal).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        file.set_len(len - 1).unwrap();
        drop(file);
        let (recovered, replayed) = reopen().unwrap();
        assert!(replayed < ops.len());
        assert!(check::same_graph(&live, recovered.index().base()).is_err());
    }
}
