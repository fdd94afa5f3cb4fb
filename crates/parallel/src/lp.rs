//! Logical processes — the unit of distribution — and what every engine
//! of this crate shares around them.
//!
//! The LP model ([`LogicalProcess`], [`LpCtx`], [`LpId`]) and the per-LP
//! kernel live in `lsds-core`, beside the delivery kernel of the
//! centralized engines: an LP is that kernel plus a port holding its id,
//! lookahead, out-edges and staged sends, and the kernel stamps every
//! output with the `(source LP << 48) | sequence` tie key in staging
//! order. What this module adds is the setup check every engine runs
//! (`validate_run`), the `(time, tie)` packing Time Warp keys its store
//! by, and the thread-per-LP scaffold. What is left in an engine file is
//! its synchronisation policy: when is the next event safe, and what
//! happens on a straggler.

pub use lsds_core::{LogicalProcess, LpCtx, LpId};
use lsds_core::{LpPort, SimTime};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::ScopedJoinHandle;

/// Total order on `(time, tie)` as one integer: IEEE-754 bit patterns of
/// non-negative finite doubles compare like the doubles themselves.
#[inline]
pub(crate) fn pack(at: SimTime, tie: u64) -> u128 {
    let s = at.seconds();
    debug_assert!(s >= 0.0, "negative sim time in tie pack");
    ((s.to_bits() as u128) << 64) | tie as u128
}

/// Inverse of [`pack`].
#[inline]
pub(crate) fn unpack(key: u128) -> (SimTime, u64) {
    (SimTime::new(f64::from_bits((key >> 64) as u64)), key as u64)
}

/// Setup validation shared by all five engines, run before any LP or
/// thread starts so a bad run fails identically whichever executor was
/// asked: at most 65 536 LPs (more would alias tie keys), every
/// declared edge in range and loop-free, and — for the engines whose
/// liveness rests on it — a positive finite lookahead of at least
/// `min_lookahead` on every LP.
pub(crate) fn validate_run<L: LogicalProcess>(
    lps: &[L],
    edges: &[(LpId, LpId)],
    min_lookahead: Option<f64>,
) {
    let (n, max) = (lps.len(), LpPort::<L::Msg>::MAX_LPS);
    assert!(
        n <= max,
        "{n} LPs in one run, but the event tie key addresses at most {max}"
    );
    validate_edges(n, edges);
    if let Some(floor) = min_lookahead {
        for (i, lp) in lps.iter().enumerate() {
            let la = lp.lookahead();
            assert!(
                la > 0.0 && la.is_finite() && la >= floor,
                "LP {i} must declare positive finite lookahead of at least {floor}, got {la}"
            );
        }
    }
}

/// Validates a declared topology: every edge in range, no self-loops.
fn validate_edges(n: usize, edges: &[(LpId, LpId)]) {
    for &(s, d) in edges {
        assert!(s < n && d < n && s != d, "bad edge ({s},{d})");
    }
}

/// Out-neighbors of `me` under a declared edge list, in declaration order.
pub(crate) fn out_neighbors(edges: &[(LpId, LpId)], me: LpId) -> Vec<LpId> {
    edges
        .iter()
        .filter(|(s, _)| *s == me)
        .map(|(_, d)| *d)
        .collect()
}

/// Joins a scoped thread, re-raising its panic with the original payload
/// so the caller sees the model's or the kernel's own message.
pub(crate) fn join<R>(handle: ScopedJoinHandle<'_, R>) -> R {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// The thread-per-LP scaffold of CMB, the time-stepped engine and Time
/// Warp: one mpsc inbox of `P` packets per LP, one scoped thread per LP
/// running `body(me, seat, tracer, telemetry, inbox, every LP's sender)`
/// on its seat (the LP plus whatever per-LP state the engine prepared),
/// joined in id order and unzipped into per-LP columns.
///
/// `mpsc::Receiver` is `!Sync`, so each thread owns its inbox; the senders
/// stay with the caller and are shared by reference.
pub(crate) fn run_lp_threads<I, P, L, S, T, Y>(
    seats: Vec<I>,
    mk_tracer: impl Fn(LpId) -> T,
    mk_tel: impl Fn(LpId) -> Y,
    body: impl Fn(LpId, I, T, Y, Receiver<P>, &[Sender<P>]) -> (L, S, T, Y) + Sync,
) -> (Vec<L>, Vec<S>, Vec<T>, Vec<Y>)
where
    I: Send,
    P: Send,
    L: Send,
    S: Send,
    T: Send,
    Y: Send,
{
    let (txs, rxs): (Vec<Sender<P>>, Vec<Receiver<P>>) = seats.iter().map(|_| channel()).unzip();
    let (txs, body) = (&txs[..], &body);
    let ((lps, stats), (tracers, tels)) = std::thread::scope(|scope| {
        let handles: Vec<_> = seats
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(me, (seat, rx))| {
                let (tracer, tel) = (mk_tracer(me), mk_tel(me));
                scope.spawn(move || body(me, seat, tracer, tel, rx, txs))
            })
            .collect();
        let columns = handles.into_iter().map(|handle| {
            let (lp, stat, tracer, tel) = join(handle);
            ((lp, stat), (tracer, tel))
        });
        columns.unzip()
    });
    (lps, stats, tracers, tels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsds_core::{ScheduledEvent, NO_PARENT};

    #[test]
    fn pack_orders_by_time_then_tie() {
        assert!(pack(SimTime::new(1.0), 7) < pack(SimTime::new(2.0), 0));
        assert!(pack(SimTime::new(3.0), 1) < pack(SimTime::new(3.0), 2));
        assert!(pack(SimTime::ZERO, u64::MAX) < pack(SimTime::new(1e-300), 0));
    }

    #[test]
    fn neighbor_lists_follow_declaration_order() {
        let edges = [(0usize, 2usize), (1, 2), (2, 0), (0, 1)];
        assert_eq!(out_neighbors(&edges, 0), vec![2, 1]);
        assert_eq!(out_neighbors(&edges, 2), vec![0]);
    }

    #[test]
    #[should_panic(expected = "bad edge")]
    fn validate_edges_rejects_self_loop() {
        validate_edges(3, &[(1, 1)]);
    }

    /// A port of LP `me` under lookahead 1 with out-edges to 5 and 7.
    fn port(me: LpId) -> LpPort<u32> {
        LpPort::new(me, 1.0, vec![5, 7])
    }

    #[test]
    fn tie_key_orders_by_src_then_seq() {
        let tie = |src: LpId, seq: u64| port(src).first_seq() + seq;
        assert!(tie(0, 5) < tie(0, 6));
        assert!(tie(0, u32::MAX as u64) < tie(1, 0));
        assert!(tie(1, 7) < tie(2, 0));
    }

    /// Sends as the port hands them out: `(k, dst, event)`.
    type Sent = Vec<(usize, LpId, ScheduledEvent<u32>)>;

    /// Runs `f` as LP 3's handler at t = 10 through the port's one
    /// context, returning its local events and its sends as `(k, dst, ev)`.
    fn run_handler(f: impl FnMut(&mut LpCtx<'_, u32>) + Send) -> (Vec<ScheduledEvent<u32>>, Sent) {
        struct Once<F>(F);
        impl<F: FnMut(&mut LpCtx<'_, u32>) + Send> LogicalProcess for Once<F> {
            type Msg = u32;
            fn handle(&mut self, _now: SimTime, _msg: u32, ctx: &mut LpCtx<'_, u32>) {
                (self.0)(ctx);
            }
            fn lookahead(&self) -> f64 {
                1.0
            }
        }
        let mut port = port(3);
        let (mut seq, mut local, mut sent) = (port.first_seq(), Vec::new(), Vec::new());
        let ev = ScheduledEvent::new(SimTime::new(10.0), 0, 0);
        port.handle(&mut Once(f), ev, &mut seq, &mut local);
        port.drain(|k, dst, ev| sent.push((k, dst, ev)));
        (local, sent)
    }

    /// One handler mixing `schedule_in` and `send`: every output gets the
    /// next tie key of its source LP in staging order, whichever sink it
    /// goes to, and carries the handled event's key as its parent.
    #[test]
    fn route_stamps_consecutive_ties_in_staging_order() {
        struct Mixer;
        impl LogicalProcess for Mixer {
            type Msg = u32;
            fn handle(&mut self, _now: SimTime, base: u32, ctx: &mut LpCtx<'_, u32>) {
                ctx.schedule_in(1.0, base);
                ctx.send(7, 2.0, base + 1);
                ctx.schedule_in(0.5, base + 2);
                ctx.send(5, 1.0, base + 3);
            }
            fn lookahead(&self) -> f64 {
                1.0
            }
        }
        let mut port = port(3);
        let mut seq = port.first_seq();
        let (mut locals, mut remotes, mut staged) = (Vec::new(), Vec::new(), Vec::new());
        for (cause, base) in [(77u64, 10u32), (78, 20)] {
            let ev = ScheduledEvent::with_parent(SimTime::new(4.0), cause, NO_PARENT, base);
            port.handle(&mut Mixer, ev, &mut seq, &mut staged);
            for ev in staged.drain(..) {
                locals.push((ev.seq, ev.parent, ev.time.seconds(), ev.event));
            }
            port.drain(|k, dst, ev| remotes.push((ev.seq, ev.parent, k, dst, ev.event)));
        }
        let tie = |seq: u64| (3u64 << 48) | seq;
        assert_eq!(
            locals,
            vec![
                (tie(0), 77, 5.0, 10),
                (tie(2), 77, 4.5, 12),
                (tie(4), 78, 5.0, 20),
                (tie(6), 78, 4.5, 22),
            ]
        );
        assert_eq!(
            remotes,
            vec![
                (tie(1), 77, 1, 7, 11),
                (tie(3), 77, 0, 5, 13),
                (tie(5), 78, 1, 7, 21),
                (tie(7), 78, 0, 5, 23),
            ]
        );
        assert_eq!(seq, tie(8));
    }

    #[test]
    fn ctx_stages_local_and_remote() {
        let (local, sent) = run_handler(|ctx| {
            ctx.schedule_in(0.0, 1);
            ctx.send(5, 1.0, 2);
        });
        assert_eq!(local.len(), 1);
        assert_eq!(local[0].time, SimTime::new(10.0));
        assert_eq!(sent.len(), 1);
        let (k, dst, ev) = &sent[0];
        assert_eq!((*k, *dst), (0, 5));
        assert_eq!(ev.time, SimTime::new(11.0));
        assert_eq!(ev.event, 2);
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn schedule_in_negative_dt_panics() {
        run_handler(|ctx| ctx.schedule_in(-0.5, 1));
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn schedule_in_nan_dt_panics() {
        run_handler(|ctx| ctx.schedule_in(f64::NAN, 1));
    }

    /// The conservative contract: `send` rejects delays below the
    /// declared lookahead. Time Warp runs handlers with `lookahead =
    /// f64::MIN_POSITIVE`, so the same model code is accepted there for
    /// any strictly positive delay — only zero-delay cross-LP sends stay
    /// forbidden (they would make equal-time ordering race-dependent).
    #[test]
    #[should_panic]
    fn send_below_lookahead_panics() {
        run_handler(|ctx| ctx.send(5, 0.5, 2));
    }
}
