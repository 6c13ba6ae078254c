//! Closed-loop load: each client sends its next request only after the
//! previous reply arrived.

use crate::trace::Trace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One completed operation.
pub struct Op<R> {
    /// Position in the workload's request stream.
    pub seq: usize,
    /// Client-observed latency.
    pub latency: Duration,
    /// What the call returned.
    pub out: R,
}

/// Runs one client on the calling thread: it takes the next stream
/// position from `next` and calls `op` on it, until `deadline` passes or
/// the stream's `limit` is reached.
pub fn client<R>(
    next: &AtomicUsize,
    limit: usize,
    deadline: Instant,
    trace: &mut Trace,
    mut op: impl FnMut(usize, &mut Trace) -> R,
) -> Vec<Op<R>> {
    let mut done = Vec::new();
    while Instant::now() < deadline {
        // Relaxed: the counter only hands out distinct positions.
        let seq = next.fetch_add(1, Ordering::Relaxed);
        if seq >= limit {
            break;
        }
        let start = Instant::now();
        let out = op(seq, trace);
        done.push(Op {
            seq,
            latency: start.elapsed(),
            out,
        });
    }
    done
}

/// Runs `clients` closed-loop clients over one shared stream of `limit`
/// positions for `duration`. Returns every operation, the spans each
/// client recorded (merged) and the phase's wall time.
pub fn closed_loop<R: Send>(
    clients: usize,
    limit: usize,
    duration: Duration,
    origin: Instant,
    track_base: u64,
    op: impl Fn(usize, &mut Trace) -> R + Sync,
) -> (Vec<Op<R>>, Trace, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + duration;
    let results: Vec<(Vec<Op<R>>, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (next, op) = (&next, &op);
                s.spawn(move || {
                    let mut trace = Trace::new(origin, track_base + c as u64);
                    let ops = client(next, limit, deadline, &mut trace, op);
                    (ops, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut all = Vec::new();
    let mut merged = Trace::new(origin, track_base + clients as u64);
    for (ops, trace) in results {
        all.extend(ops);
        merged.absorb(trace);
    }
    all.sort_by_key(|o| o.seq);
    (all, merged, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_share_the_stream_without_repeats() {
        let (ops, _, _) = closed_loop(
            2,
            50,
            Duration::from_secs(5),
            Instant::now(),
            0,
            |seq, _| seq * 2,
        );
        assert_eq!(ops.len(), 50);
        assert!(ops
            .iter()
            .enumerate()
            .all(|(i, o)| o.seq == i && o.out == 2 * i));
    }

    #[test]
    fn a_client_stops_at_the_deadline() {
        let next = AtomicUsize::new(0);
        let mut trace = Trace::new(Instant::now(), 0);
        let ops = client(&next, usize::MAX, Instant::now(), &mut trace, |_, _| ());
        assert!(ops.is_empty());
    }
}
