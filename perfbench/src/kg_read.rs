//! `kg-read`: monolithic read serving on the knowledge graph. Two
//! closed-loop clients send mixed bkws/rkws/dkws requests drawn with a
//! Zipf distribution from a pool larger than the answer cache.

use crate::load::{closed_loop, Op};
use crate::metrics::cores;
use crate::serving::{self, Read, ReadOp, StageSample};
use crate::trace::{self, Trace};
use crate::util::{median, ms, peak_rss_mb, ratio, timed, Metrics};
use crate::{Args, Outcome};
use bgi_datasets::Dataset;
use bgi_search::Budget;
use bgi_service::{IndexSnapshot, QueryRequest, Service, ServiceConfig};
use bgi_store::IndexBundle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One set-up's serving state.
struct Serving {
    ds: Dataset,
    /// The distinct request pool.
    pool: Vec<QueryRequest>,
    /// Pool positions in request order.
    stream: Vec<usize>,
    snap: Arc<IndexSnapshot>,
    /// The bundle the snapshot was admitted from, kept for tracing.
    bundle: Option<IndexBundle>,
    service: Service,
}

/// Every set-up's times, per public call.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    /// Serving build plus snapshot admission.
    refresh_ms: Vec<f64>,
    gen_s: Vec<f64>,
    pool_s: Vec<f64>,
    admit_ms: Vec<f64>,
}

/// Sets up serving `SETUP_REPS` times (dropping each previous state
/// first) and returns the last state with every set-up's times.
fn set_up(seed: u64, keep_bundle: bool) -> Result<(Serving, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut state: Option<Serving> = None;
    for _ in 0..serving::SETUP_REPS {
        // The previous set-up's state is dropped before the next is built.
        drop(state.take());
        let start = Instant::now();
        let (ds, gen) = timed(serving::kg_dataset);
        let (pool, pool_time) = timed(|| serving::kg_pool(&ds, serving::POOL));
        if pool.len() <= ServiceConfig::default().cache_capacity {
            return Err(format!(
                "request pool of {} does not exceed the cache",
                pool.len()
            ));
        }
        let (bundle, split) = serving::serving_bundle(&ds, cores(), false);
        let kept = keep_bundle.then(|| bundle.clone());
        let (snap, admit) = timed(|| IndexSnapshot::from_bundle(bundle));
        let snap = Arc::new(snap.map_err(|e| format!("snapshot refused: {e}"))?);
        let service = Service::start(Arc::clone(&snap), ServiceConfig::default());
        let stream = serving::zipf_stream(pool.len(), seed, serving::STREAM_LEN);
        times.total.push(start.elapsed().as_secs_f64());
        times.refresh_ms.push(ms(split.total + admit));
        times.gen_s.push(gen.as_secs_f64());
        times.pool_s.push(pool_time.as_secs_f64());
        times.admit_ms.push(ms(admit));
        state = Some(Serving {
            ds,
            pool,
            stream,
            snap,
            bundle: kept,
            service,
        });
    }
    let state = state.expect("at least one set-up");
    eprintln!(
        "set up {} vertices, {} distinct requests, {} layers",
        state.ds.num_vertices(),
        state.pool.len(),
        state.snap.num_layers()
    );
    Ok((state, times))
}

/// Replays the Zipf stream with two closed-loop clients, keeping the
/// answers of the first read of each request.
fn read_phase(s: &Serving, duration: Duration) -> (Vec<ReadOp>, Duration) {
    let seen = first_reads(s.pool.len());
    let (ops, _, wall) = closed_loop(
        serving::READ_CLIENTS,
        s.stream.len(),
        duration,
        Instant::now(),
        0,
        |seq, _| {
            let k = s.stream[seq];
            let keep = !seen[k].swap(true, Ordering::Relaxed);
            s.service
                .query(s.pool[k].clone())
                .map(|r| Read::of(&r, keep))
        },
    );
    (ops, wall)
}

/// One flag per pool entry, set by the first read of that entry. The
/// flags publish no other data, so `Relaxed` swaps suffice.
fn first_reads(n: usize) -> Vec<AtomicBool> {
    (0..n).map(|_| AtomicBool::new(false)).collect()
}

/// Checks reads against direct executions on the snapshot.
fn check_exact(out: &mut Outcome, s: &Serving, ops: &[ReadOp]) {
    serving::check_reads_exact(
        out,
        ops,
        |seq| (s.stream[seq], s.pool[s.stream[seq]].clone()),
        |req| s.snap.execute(req, &Budget::unlimited()),
        &s.ds.graph,
        cores(),
    );
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (s, times) = match set_up(args.seed, args.trace) {
        Ok(v) => v,
        Err(e) => {
            out.violation(e);
            return out;
        }
    };
    let untraced = if args.trace {
        args.duration / 2
    } else {
        args.duration
    };
    let (ops, wall) = read_phase(&s, untraced);
    let stats = s.service.stats();
    let rss = peak_rss_mb();
    serving::count_ops(&mut out, &ops);
    check_exact(&mut out, &s, &ops);
    let m = &mut out.metrics;
    m.set("setup_s", median(&times.total), "s");
    m.set("datasets.gen_s", median(&times.gen_s), "s");
    m.set("datasets.query_pool_s", median(&times.pool_s), "s");
    m.set("refresh_ms", median(&times.refresh_ms), "ms");
    serving::read_metrics(m, &ops, wall);
    m.set("verify.admit_ms", median(&times.admit_ms), "ms");
    m.set("service.cache_hit_rate", stats.cache.hit_rate(), "ratio");
    m.set(
        "service.cache_evictions",
        stats.cache.evictions as f64,
        "count",
    );
    m.set(
        "service.cache_invalidated",
        stats.cache.invalidated as f64,
        "count",
    );
    m.set("service.coalesced", stats.coalesced as f64, "count");
    eprintln!(
        "served {} reads in {wall:?}: hit rate {:.3}, {} evictions, {} coalesced",
        ops.len(),
        stats.cache.hit_rate(),
        stats.cache.evictions,
        stats.coalesced
    );
    if args.trace {
        traced(args, &s, &mut out, args.duration - untraced);
    }
    out.metrics.set("peak_rss_mb", rss, "MB");
    let error_rate = ratio(out.failed as f64, out.attempted as f64);
    out.metrics.set("e2e.error_rate", error_rate, "ratio");
    out
}

/// The traced half: a fresh service over the same snapshot; every miss
/// is replayed call by call to split its cost by module.
fn traced(args: &Args, s: &Serving, out: &mut Outcome, duration: Duration) {
    let bundle = s.bundle.as_ref().expect("bundle kept for tracing");
    let service = Service::start(Arc::clone(&s.snap), ServiceConfig::default());
    let seen = first_reads(s.pool.len());
    let origin = Instant::now();
    let (ops, trace, wall) = closed_loop(
        serving::READ_CLIENTS,
        s.stream.len(),
        duration,
        origin,
        0,
        |seq, trace: &mut Trace| {
            let k = s.stream[seq];
            let req = &s.pool[k];
            let keep = !seen[k].swap(true, Ordering::Relaxed);
            let id = seq as u64;
            let (resp, client, root) =
                trace.time(id, None, "service.query", || service.query(req.clone()));
            let sample = match &resp {
                Ok(r) if !r.cache_hit => Some(serving::replay_stages(
                    &s.snap, bundle, req, client, trace, id, root,
                )),
                _ => None,
            };
            (resp.map(|r| Read::of(&r, keep)), sample)
        },
    );
    let mut samples: Vec<StageSample> = Vec::new();
    let mut reads: Vec<ReadOp> = Vec::with_capacity(ops.len());
    for op in ops {
        let (resp, sample) = op.out;
        match sample {
            Some(Ok(s)) => samples.push(s),
            Some(Err(e)) => {
                out.failed += 1;
                out.violation(format!("read {}: {e}", op.seq));
            }
            None => {}
        }
        reads.push(Op {
            seq: op.seq,
            latency: op.latency,
            out: resp,
        });
    }
    serving::count_ops(out, &reads);
    check_exact(out, s, &reads);
    let untraced_p50 = out.metrics.get("query_p50_ms").unwrap_or(0.0);
    let mut traced_metrics = Metrics::default();
    serving::read_metrics(&mut traced_metrics, &reads, wall);
    let m = &mut out.metrics;
    m.set(
        "trace.overhead.query_p50_ms",
        traced_metrics.get("query_p50_ms").unwrap_or(0.0) - untraced_p50,
        "ms",
    );
    serving::stage_metrics(m, &samples);

    // The serving build once more, one public call at a time.
    let (split_bundle, split) = serving::serving_bundle(&s.ds, cores(), true);
    let (snap, admit) = timed(|| IndexSnapshot::from_bundle(split_bundle));
    if let Err(e) = snap {
        out.violation(format!("split build refused at admission: {e}"));
    }
    let m = &mut out.metrics;
    let untraced_refresh = m.get("refresh_ms").unwrap_or(0.0);
    m.set(
        "trace.overhead.refresh_ms",
        ms(split.total + admit) - untraced_refresh,
        "ms",
    );
    m.set("bisim.materialize_s", split.materialize.as_secs_f64(), "s");
    serving::record_split(m, &split);
    trace::finish(args, out, &trace);
}
