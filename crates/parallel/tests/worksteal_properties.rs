//! Adversarial scheduling tests for the work-stealing engine: under
//! extreme load imbalance (one LP owning ~90% of the work), maximal steal
//! interleaving and every worker count, results are bit-identical to the
//! sequential oracle — scheduling decisions must never leak into
//! simulation state.
//!
//! Cases are generated with the deterministic [`SimRng`] (seeded per
//! trial), replacing the property-testing framework the offline build
//! cannot fetch.

use lsds_core::SimTime;
use lsds_parallel::cmb::InitialEvents;
use lsds_parallel::{run_sequential, run_worksteal_cfg, LogicalProcess, LpCtx, WsConfig};
use lsds_stats::SimRng;

/// Marks a message as a pure cross-LP sink (mutates state, schedules
/// nothing) so the event population stays linear — same trick as the
/// Time Warp straggler property.
const REMOTE: u64 = 1 << 63;

/// Ring node whose per-event cost and event rate are per-LP knobs, so a
/// single LP can own nearly all the work while the rest idle.
#[derive(Clone)]
struct SkewLp {
    n: usize,
    acc: u64,
    events: u64,
    /// Self-scheduling period: the hot LP fires orders of magnitude
    /// more often than the cold ones.
    local_dt: f64,
    /// State-mixing iterations per event — simulated "handler cost"
    /// that is pure state computation, so results stay deterministic.
    work: u32,
    until: f64,
    la: f64,
}

impl LogicalProcess for SkewLp {
    type Msg = u64;
    fn handle(&mut self, now: SimTime, v: u64, ctx: &mut LpCtx<'_, u64>) {
        self.events += 1;
        let mut h = self.acc ^ (v & !REMOTE) ^ now.seconds().to_bits();
        for i in 0..self.work {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
        }
        self.acc = h;
        if v & REMOTE != 0 {
            return;
        }
        if now.seconds() + self.local_dt <= self.until {
            ctx.schedule_in(self.local_dt, h >> 32);
        }
        // deterministic function of state: some events also poke the
        // next LP at exactly the declared lookahead. The delay is
        // constant on purpose: conservative channel clocks require each
        // edge's sends in nondecreasing timestamp order (the same
        // contract cmb.rs enforces), so only the payload varies.
        if h.is_multiple_of(5) && self.n > 1 && now.seconds() + self.la <= self.until {
            ctx.send((ctx.me() + 1) % self.n, self.la, REMOTE | (h & 0xffff_ffff));
        }
    }
    fn lookahead(&self) -> f64 {
        self.la
    }
}

impl InitialEvents for SkewLp {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        ctx.schedule_in(0.0, ctx.me() as u64 + 1);
    }
}

fn ring_edges(n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

/// Builds `n` LPs where LP 0 is the hot spot: it self-schedules ~50×
/// more often with ~100× the per-event cost of its neighbors.
fn skewed(n: usize, until: f64, rng: &mut SimRng) -> Vec<SkewLp> {
    (0..n)
        .map(|i| SkewLp {
            n,
            acc: 0x9e37 + i as u64 + rng.next_below(1000),
            events: 0,
            local_dt: if i == 0 { 0.01 } else { 0.5 },
            work: if i == 0 { 1000 } else { 10 },
            until,
            la: 0.2,
        })
        .collect()
}

/// FNV-1a fold of every LP's final state — any lost, duplicated, or
/// reordered delivery anywhere diverges it.
fn fingerprint(lps: &[SkewLp]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for lp in lps {
        for part in [lp.acc, lp.events] {
            h = (h ^ part).wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn imbalanced_run_bit_identical_across_worker_counts() {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    for trial in 0..6u64 {
        let mut rng = SimRng::new(0x5EA1 + trial);
        let n = 4 + rng.next_below(5) as usize;
        let until = 4.0 + rng.next_below(4) as f64;
        let proto = skewed(n, until, &mut rng);
        let edges = ring_edges(n);
        let t_end = SimTime::new(until);
        let seq = run_sequential(proto.clone(), &edges, t_end);
        // the scenario is genuinely skewed: LP 0 owns ≥ 90% of the
        // *work* (events weighted by per-event handler cost — its sink
        // messages inflate the neighbor's raw event count)
        let weighted: u64 = seq
            .events
            .iter()
            .zip(&proto)
            .map(|(&e, lp)| e * lp.work as u64)
            .sum();
        assert!(
            seq.events[0] * proto[0].work as u64 * 10 >= weighted * 9,
            "trial {trial}: hot LP owns {}/{weighted} weighted work — scenario lost its skew",
            seq.events[0] * proto[0].work as u64,
        );
        for workers in [1usize, 2, cores] {
            let ws =
                run_worksteal_cfg(proto.clone(), &edges, t_end, WsConfig { workers, batch: 8 });
            assert_eq!(
                fingerprint(&ws.lps),
                fingerprint(&seq.lps),
                "trial {trial} workers={workers} diverged from sequential"
            );
            for i in 0..n {
                assert_eq!(
                    seq.events[i], ws.stats[i].events,
                    "trial {trial} workers={workers} LP {i} event count"
                );
            }
        }
    }
}

/// Steal order is scheduling noise: repeated runs with maximal
/// interleaving (several workers, batch 1, so every event is a separate
/// activation that can be stolen) must produce byte-identical state.
#[test]
fn steal_order_never_affects_results() {
    for trial in 0..4u64 {
        let mut rng = SimRng::new(0x57EA + trial);
        let n = 5 + rng.next_below(3) as usize;
        let until = 3.0;
        let proto = skewed(n, until, &mut rng);
        let edges = ring_edges(n);
        let t_end = SimTime::new(until);
        let mut prints = Vec::new();
        for _rep in 0..6 {
            let ws = run_worksteal_cfg(
                proto.clone(),
                &edges,
                t_end,
                WsConfig {
                    workers: 4,
                    batch: 1,
                },
            );
            prints.push(fingerprint(&ws.lps));
        }
        assert!(
            prints.windows(2).all(|w| w[0] == w[1]),
            "trial {trial}: repeated runs diverged: {prints:x?}"
        );
    }
}

/// Batch size trades fairness for locking overhead but must be invisible
/// in results, including at the extremes.
#[test]
fn batch_size_invisible_in_results() {
    let mut rng = SimRng::new(0xBA7C);
    let n = 6;
    let until = 3.0;
    let proto = skewed(n, until, &mut rng);
    let edges = ring_edges(n);
    let t_end = SimTime::new(until);
    let reference = run_sequential(proto.clone(), &edges, t_end);
    for batch in [1u32, 2, 7, 64, 4096] {
        let ws = run_worksteal_cfg(proto.clone(), &edges, t_end, WsConfig { workers: 3, batch });
        assert_eq!(
            fingerprint(&ws.lps),
            fingerprint(&reference.lps),
            "batch={batch} diverged"
        );
    }
}
