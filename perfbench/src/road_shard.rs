//! `road-shard`: scatter–gather serving on the road network, 4 shards.
//! Two closed-loop clients send rkws/dkws requests over pairs and
//! triples of frequent labels; no keyword set repeats, so the answer
//! cache never hits.

use crate::load::closed_loop;
use crate::metrics::cores;
use crate::serving::{self, Read};
use crate::trace::Trace;
use crate::util::{median, ms, peak_rss_mb, ratio, shuffle, timed, Metrics};
use crate::{Args, Outcome};
use bgi_datasets::{Dataset, DatasetSpec};
use bgi_graph::LabelId;
use bgi_search::Budget;
use bgi_service::{
    snapshot_from_build, QueryRequest, Semantics, Service, ServiceConfig, ShardedSnapshot,
};
use bgi_shard::{build_shard_bundles, ShardBuildParams, ShardPlan, ShardSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Vertices of the road network.
const ROAD_SCALE: usize = 20_000;
/// Shards of the deployment.
const SHARDS: usize = 4;
/// The plan's `d_max` ceiling, and every request's `d_max`.
const DMAX: u32 = 2;
/// Most frequent labels the keyword sets are drawn from.
const TOP_LABELS: usize = 24;

struct Deployment {
    ds: Dataset,
    requests: Vec<QueryRequest>,
    snap: Arc<ShardedSnapshot>,
    service: Service,
    dup: f64,
}

/// Every pair and triple of the `TOP_LABELS` most frequent labels, in
/// an order drawn from the run's seed. Every third request is dkws and
/// the others rkws. rkws answers in about half a millisecond and dkws in
/// 20-120 ms, so an even mix would put the median between the two modes
/// and make it jump from run to run; with two rkws per dkws the median
/// sits among the rkws, dkws sets the tail and the throughput, and a run
/// holds enough reads for its 99th percentile. The dataset does not
/// depend on the seed.
fn requests(ds: &Dataset, seed: u64) -> Vec<QueryRequest> {
    let counts = ds.graph.label_counts();
    let mut by_freq: Vec<(u32, LabelId)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(l, &c)| (c, LabelId(l as u32)))
        .collect();
    by_freq.sort_unstable_by_key(|&(c, l)| (std::cmp::Reverse(c), l));
    let top: Vec<LabelId> = by_freq.iter().take(TOP_LABELS).map(|&(_, l)| l).collect();
    let mut sets: Vec<Vec<LabelId>> = Vec::new();
    for i in 0..top.len() {
        for j in i + 1..top.len() {
            sets.push(vec![top[i], top[j]]);
            for &l in &top[j + 1..] {
                sets.push(vec![top[i], top[j], l]);
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    shuffle(&mut sets, &mut rng);
    sets.into_iter()
        .enumerate()
        .map(|(i, kws)| {
            let semantics = if i % 3 == 2 {
                Semantics::Dkws
            } else {
                Semantics::Rkws
            };
            QueryRequest::new(semantics, kws, DMAX, serving::K)
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let threads = cores();
    let mut setups = Vec::new();
    let mut refresh = Vec::new();
    let mut plan_s = Vec::new();
    let mut build_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut pool_s = Vec::new();
    let mut state: Option<Deployment> = None;
    for _ in 0..serving::SETUP_REPS {
        // The previous set-up's state is dropped before the next is built.
        drop(state.take());
        let start = Instant::now();
        let (ds, gen) = timed(|| DatasetSpec::road_like(ROAD_SCALE).generate());
        let (requests, pool_time) = timed(|| requests(&ds, args.seed));
        let spec = ShardSpec {
            shards: SHARDS,
            dmax_ceiling: DMAX,
            partition_block: 0,
        };
        let (plan, plan_time) = timed(|| ShardPlan::build(&ds.graph, &spec));
        let plan = match plan {
            Ok(p) => p,
            Err(e) => {
                out.violation(format!("shard plan failed: {e}"));
                return out;
            }
        };
        let dup = (0..SHARDS).map(|s| plan.universe(s).len()).sum::<usize>() as f64
            / plan.num_vertices().max(1) as f64;
        let params = ShardBuildParams {
            max_layers: serving::LAYERS,
            threads,
            ..ShardBuildParams::default()
        };
        let (bundles, build_time) =
            timed(|| build_shard_bundles(&ds.graph, &ds.ontology, &plan, &params));
        let (snap, admit) = timed(|| snapshot_from_build(Arc::new(plan), bundles, threads));
        let snap = match snap {
            Ok(s) => s,
            Err(e) => {
                out.violation(format!("sharded snapshot refused: {e}"));
                return out;
            }
        };
        let service = Service::start_sharded(Arc::clone(&snap), ServiceConfig::default());
        setups.push(start.elapsed().as_secs_f64());
        refresh.push(ms(plan_time + build_time + admit));
        plan_s.push(plan_time.as_secs_f64());
        build_s.push(build_time.as_secs_f64());
        gen_s.push(gen.as_secs_f64());
        pool_s.push(pool_time.as_secs_f64());
        state = Some(Deployment {
            ds,
            requests,
            snap,
            service,
            dup,
        });
    }
    let d = state.expect("at least one set-up");
    eprintln!(
        "set up {} vertices on {SHARDS} shards (dup {:.3}), {} distinct requests",
        d.ds.num_vertices(),
        d.dup,
        d.requests.len()
    );
    let untraced = if args.trace {
        args.duration / 2
    } else {
        args.duration
    };
    let (ops, _, wall) = closed_loop(
        serving::READ_CLIENTS,
        d.requests.len(),
        untraced,
        Instant::now(),
        0,
        |seq, _| {
            d.service
                .query(d.requests[seq].clone())
                .map(|r| Read::of(&r, true))
        },
    );
    let rss = peak_rss_mb();
    let stats = d.service.stats();
    if ops.len() >= d.requests.len() {
        out.violation("the run used up every distinct request".into());
    }
    serving::count_ops(&mut out, &ops);
    let check = |out: &mut Outcome, ops: &[serving::ReadOp]| {
        serving::check_reads_exact(
            out,
            ops,
            |seq| (seq, d.requests[seq].clone()),
            |req| d.snap.execute(req, &Budget::unlimited()),
            &d.ds.graph,
            threads,
        );
    };
    check(&mut out, &ops);
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), "s");
    m.set("refresh_ms", median(&refresh), "ms");
    serving::read_metrics(m, &ops, wall);
    m.set("peak_rss_mb", rss, "MB");
    m.set("shard.plan_s", median(&plan_s), "s");
    m.set("shard.build_s", median(&build_s), "s");
    m.set("shard.dup", d.dup, "ratio");
    m.set("datasets.gen_s", median(&gen_s), "s");
    m.set("datasets.query_pool_s", median(&pool_s), "s");
    let legs: Vec<f64> = stats.per_shard.iter().map(|l| ms(l.p95)).collect();
    let leg = |pick: fn(f64, f64) -> f64| legs.iter().copied().reduce(pick).unwrap_or(0.0);
    m.set("shard.leg_p95_ms.max", leg(f64::max), "ms");
    m.set("shard.leg_p95_ms.min", leg(f64::min), "ms");
    m.set("service.cache_hit_rate", stats.cache.hit_rate(), "ratio");
    m.set(
        "service.cache_evictions",
        stats.cache.evictions as f64,
        "count",
    );
    m.set("service.coalesced", stats.coalesced as f64, "count");
    eprintln!(
        "served {} reads in {wall:?}: hit rate {:.3}",
        ops.len(),
        stats.cache.hit_rate()
    );
    if args.trace {
        traced(args, &d, &mut out, args.duration - untraced, check);
    }
    let error_rate = ratio(out.failed as f64, out.attempted as f64);
    out.metrics.set("e2e.error_rate", error_rate, "ratio");
    out
}

/// The traced half: a fresh service; every read is replayed as a
/// direct scatter–gather execution to split client latency from
/// execution.
fn traced(
    args: &Args,
    d: &Deployment,
    out: &mut Outcome,
    duration: Duration,
    check: impl Fn(&mut Outcome, &[serving::ReadOp]),
) {
    let service = Service::start_sharded(Arc::clone(&d.snap), ServiceConfig::default());
    // Continue the request stream where the untraced half stopped, so
    // no keyword set repeats.
    let offset = out.attempted as usize;
    let limit = d.requests.len().saturating_sub(offset);
    let (ops, trace, wall) = closed_loop(
        serving::READ_CLIENTS,
        limit,
        duration,
        Instant::now(),
        0,
        |seq, trace: &mut Trace| {
            let req = &d.requests[offset + seq];
            let id = (offset + seq) as u64;
            let (resp, client, root) =
                trace.time(id, None, "service.query", || service.query(req.clone()));
            let (_, exec, _) = trace.time(id, Some(root), "service.sharded_execute", || {
                d.snap.execute(req, &Budget::unlimited())
            });
            (
                resp.map(|r| Read::of(&r, true)),
                client,
                exec,
                req.semantics,
            )
        },
    );
    let mut reads = Vec::with_capacity(ops.len());
    let mut overhead = Vec::new();
    let mut exec_by: [Vec<f64>; 3] = Default::default();
    let (mut covered, mut client_total) = (0.0, 0.0);
    for op in ops {
        let (read, client, exec, semantics) = op.out;
        overhead.push((client.as_secs_f64() - exec.as_secs_f64()) * 1e6);
        exec_by[semantics.index()].push(ms(exec));
        covered += exec.min(client).as_secs_f64();
        client_total += client.as_secs_f64();
        reads.push(crate::load::Op {
            seq: offset + op.seq,
            latency: op.latency,
            out: read,
        });
    }
    serving::count_ops(out, &reads);
    check(out, &reads);
    let mut traced_metrics = Metrics::default();
    serving::read_metrics(&mut traced_metrics, &reads, wall);
    let m = &mut out.metrics;
    let untraced_p50 = m.get("query_p50_ms").unwrap_or(0.0);
    m.set(
        "trace.overhead.query_p50_ms",
        traced_metrics.get("query_p50_ms").unwrap_or(0.0) - untraced_p50,
        "ms",
    );
    m.set("service.overhead_us", median(&overhead), "us");
    for sem in Semantics::ALL {
        m.set(
            format!("search.exec_ms.{sem}"),
            median(&exec_by[sem.index()]),
            "ms",
        );
    }
    m.set("trace.coverage", ratio(covered, client_total), "ratio");
    crate::trace::finish(args, out, &trace);
}
