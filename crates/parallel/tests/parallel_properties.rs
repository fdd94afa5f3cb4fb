//! Randomized tests of the distributed engines: for arbitrary ring
//! workloads, the conservative CMB engine, the time-stepped engine, and an
//! analytically computed reference all agree — parallel execution never
//! changes results (the determinism guarantee of `lsds-parallel`).
//!
//! Cases are generated with the deterministic [`SimRng`] (seeded per
//! trial), replacing the property-testing framework the offline build
//! cannot fetch.

use lsds_core::SimTime;
use lsds_parallel::cmb::InitialEvents;
use lsds_parallel::{
    run_cmb, run_sequential, run_timestep, run_timewarp, run_worksteal, LogicalProcess, LpCtx,
    SaveState,
};
use lsds_stats::SimRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const TRIALS: u64 = 24;

/// Token-passing ring node with per-node hop counts.
#[derive(Clone)]
struct Ring {
    n: usize,
    delay: f64,
    seen: u64,
}

impl LogicalProcess for Ring {
    type Msg = u64;
    fn handle(&mut self, _now: SimTime, hop: u64, ctx: &mut LpCtx<'_, u64>) {
        self.seen += 1;
        ctx.send((ctx.me() + 1) % self.n, self.delay, hop + 1);
    }
    fn lookahead(&self) -> f64 {
        self.delay
    }
}

impl InitialEvents for Ring {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        if ctx.me() == 0 {
            ctx.schedule_in(0.0, 0);
        }
    }
}

impl SaveState for Ring {
    type Saved = u64;
    fn save(&self) -> u64 {
        self.seen
    }
    fn restore(&mut self, saved: u64) {
        self.seen = saved;
    }
}

fn ring(n: usize, delay: f64) -> Vec<Ring> {
    (0..n).map(|_| Ring { n, delay, seen: 0 }).collect()
}

fn ring_edges(n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

/// Analytic reference: hop k fires at time k·delay; LP (k mod n) sees it.
fn analytic_counts(n: usize, delay: f64, t_end: f64) -> Vec<u64> {
    let mut counts = vec![0u64; n];
    let hops = (t_end / delay).floor() as u64;
    for k in 0..=hops {
        counts[(k % n as u64) as usize] += 1;
    }
    counts
}

#[test]
fn cmb_matches_analytic_ring() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0xC3B0 + trial);
        let n = 2 + rng.next_below(4) as usize;
        let delay = rng.range_f64(0.1, 5.0);
        let periods = 10 + rng.next_below(190) as u32;
        let t_end = delay * periods as f64 * 0.999; // avoid boundary ties
        let report = run_cmb(ring(n, delay), &ring_edges(n), SimTime::new(t_end));
        let expect = analytic_counts(n, delay, t_end);
        let got: Vec<u64> = report.lps.iter().map(|l| l.seen).collect();
        assert_eq!(got, expect, "n={n} delay={delay} periods={periods}");
    }
}

#[test]
fn timestep_matches_cmb() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0xC3B1 + trial);
        let n = 2 + rng.next_below(3) as usize;
        let delay = rng.range_f64(0.2, 2.0);
        let periods = 10 + rng.next_below(90) as u32;
        let t_end = delay * periods as f64 * 0.999;
        let a = run_cmb(ring(n, delay), &ring_edges(n), SimTime::new(t_end));
        let b = run_timestep(ring(n, delay), delay, SimTime::new(t_end));
        let ca: Vec<u64> = a.lps.iter().map(|l| l.seen).collect();
        let cb: Vec<u64> = b.lps.iter().map(|l| l.seen).collect();
        assert_eq!(ca, cb, "n={n} delay={delay} periods={periods}");
    }
}

#[test]
fn timewarp_matches_analytic_ring() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0xC3B3 + trial);
        let n = 2 + rng.next_below(4) as usize;
        let delay = rng.range_f64(0.1, 5.0);
        let periods = 10 + rng.next_below(190) as u32;
        let t_end = delay * periods as f64 * 0.999;
        let report = run_timewarp(ring(n, delay), &ring_edges(n), SimTime::new(t_end));
        let expect = analytic_counts(n, delay, t_end);
        let got: Vec<u64> = report.lps.iter().map(|l| l.seen).collect();
        assert_eq!(got, expect, "n={n} delay={delay} periods={periods}");
        assert_eq!(
            report.total_events(),
            report.total_processed() - report.total_rolled_back(),
            "accounting must balance"
        );
    }
}

/// All five executors agree with t_end landing *exactly* on event times —
/// the adversarial boundary for CMB's t_end fold (S1) and for Time Warp's
/// inclusive-horizon handling. No `0.999` slack on purpose.
#[test]
fn engines_agree_at_exact_horizon_boundary() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0xC3B4 + trial);
        let n = 2 + rng.next_below(3) as usize;
        let delay = rng.range_f64(0.2, 2.0);
        let periods = 5 + rng.next_below(45) as u32;
        let t_end = SimTime::new(delay * periods as f64);
        let seq = run_sequential(ring(n, delay), &ring_edges(n), t_end);
        let cmb = run_cmb(ring(n, delay), &ring_edges(n), t_end);
        let ts = run_timestep(ring(n, delay), delay, t_end);
        let tw = run_timewarp(ring(n, delay), &ring_edges(n), t_end);
        let ws = run_worksteal(ring(n, delay), &ring_edges(n), t_end);
        let cs: Vec<u64> = seq.lps.iter().map(|l| l.seen).collect();
        let cc: Vec<u64> = cmb.lps.iter().map(|l| l.seen).collect();
        let ct: Vec<u64> = ts.lps.iter().map(|l| l.seen).collect();
        let cw: Vec<u64> = tw.lps.iter().map(|l| l.seen).collect();
        let cx: Vec<u64> = ws.lps.iter().map(|l| l.seen).collect();
        assert_eq!(cs, cc, "cmb diverged: n={n} delay={delay} p={periods}");
        assert_eq!(cs, ct, "timestep diverged: n={n} delay={delay} p={periods}");
        assert_eq!(cs, cw, "timewarp diverged: n={n} delay={delay} p={periods}");
        assert_eq!(
            cs, cx,
            "worksteal diverged: n={n} delay={delay} p={periods}"
        );
        assert_eq!(seq.total_events(), tw.total_events());
        assert_eq!(seq.total_events(), ws.total_events());
    }
}

/// Delivered events and final LP states of one run, or the message it
/// panicked with.
type Outcome<L> = Result<(u64, Vec<L>), String>;

/// The five executors as one table: engine name → outcome. The
/// time-stepped engine takes its window `delta` where the others take the
/// edge list.
fn run_every_engine<L>(
    mk: impl Fn() -> Vec<L>,
    edges: &[(usize, usize)],
    delta: f64,
    t_end: SimTime,
) -> Vec<(&'static str, Outcome<L>)>
where
    L: SaveState + InitialEvents,
    L::Msg: Clone,
{
    fn caught<R>(run: impl FnOnce() -> R) -> Result<R, String> {
        catch_unwind(AssertUnwindSafe(run)).map_err(|payload| {
            let text = payload.downcast_ref::<String>().cloned();
            text.or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }
    macro_rules! row {
        ($engine:literal, $run:expr) => {
            ($engine, caught(|| $run).map(|r| (r.total_events(), r.lps)))
        };
    }
    vec![
        row!("sequential", run_sequential(mk(), edges, t_end)),
        row!("cmb", run_cmb(mk(), edges, t_end)),
        row!("timestep", run_timestep(mk(), delta, t_end)),
        row!("timewarp", run_timewarp(mk(), edges, t_end)),
        row!("worksteal", run_worksteal(mk(), edges, t_end)),
    ]
}

/// Sends to the next LP although no edge is declared at all. Every LP
/// misbehaves and none has an in-edge to wait on, so every LP thread of
/// the thread-per-LP engines terminates (a lone panicking LP would leave
/// Time Warp's GVT ring, or a CMB receiver, blocked forever).
#[derive(Clone)]
struct Stray {
    n: usize,
}

impl LogicalProcess for Stray {
    type Msg = ();
    fn handle(&mut self, _now: SimTime, _msg: (), ctx: &mut LpCtx<'_, ()>) {
        ctx.send((ctx.me() + 1) % self.n, 1.0, ());
    }
    fn lookahead(&self) -> f64 {
        1.0
    }
}

impl InitialEvents for Stray {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, ()>) {
        ctx.schedule_in(0.0, ());
    }
}

impl SaveState for Stray {
    type Saved = ();
    fn save(&self) {}
    fn restore(&mut self, _saved: ()) {}
}

/// A send with no declared `(src, dst)` edge is a model bug: every engine
/// that takes an edge list must refuse it with the kernel's one message,
/// in debug and release alike. (Before the shared kernel, sequential and
/// Time Warp delivered it and release builds of CMB and worksteal dropped
/// it silently.)
#[test]
fn undeclared_edge_panics_in_every_engine() {
    let expected = [
        "LP 0 sent to LP 1: no declared edge",
        "LP 1 sent to LP 0: no declared edge",
    ];
    let mk = || vec![Stray { n: 2 }; 2];
    for (engine, outcome) in run_every_engine(mk, &[], 1.0, SimTime::new(5.0)) {
        if engine == "timestep" {
            continue; // no edge list: any LP may send to any other
        }
        let message = outcome
            .err()
            .unwrap_or_else(|| panic!("{engine} delivered it"));
        assert!(
            expected.contains(&message.as_str()),
            "{engine} panicked with {message:?}"
        );
    }
}

/// The tie key holds the source LP in 16 bits; one LP more must be
/// rejected at setup, before any LP thread is spawned.
#[test]
fn too_many_lps_rejected_at_setup() {
    let mk = || vec![Stray { n: 1 }; (1 << 16) + 1];
    for (engine, outcome) in run_every_engine(mk, &[], 1.0, SimTime::new(1.0)) {
        let message = outcome.err().unwrap_or_else(|| panic!("{engine} ran it"));
        assert!(
            message.contains("tie key"),
            "{engine} panicked with {message:?}"
        );
    }
}

#[test]
fn zero_lps_is_an_empty_report_in_every_engine() {
    for (engine, outcome) in run_every_engine(Vec::<Ring>::new, &[], 1.0, SimTime::new(10.0)) {
        let (events, lps) = outcome.unwrap_or_else(|m| panic!("{engine} panicked: {m}"));
        assert!(lps.is_empty() && events == 0, "{engine}");
    }
}

/// S4: a workload whose inter-LP delays are *far below* the declared
/// lookahead (so Time Warp speculates wrongly and must roll back) commits
/// exactly the sequential engine's event set and final state, across
/// seeds. The messages sent and their timestamps depend only on model
/// state, so any lost/duplicated/mis-ordered delivery diverges the hash.
///
/// Remote messages carry [`REMOTE`] and are pure sinks (they mutate state
/// but schedule nothing) — otherwise every delivery would seed a fresh
/// local chain and the event population would grow combinatorially. The
/// sinks still force rollbacks at the receiver, and rolling back the
/// *local* chain cancels its optimistic sends, exercising anti-messages.
const REMOTE: u64 = 1 << 63;

#[derive(Clone)]
struct Chaotic {
    n: usize,
    acc: u64,
    events: u64,
    local_dt: f64,
    until: f64,
}

impl LogicalProcess for Chaotic {
    type Msg = u64;
    fn handle(&mut self, now: SimTime, v: u64, ctx: &mut LpCtx<'_, u64>) {
        self.events += 1;
        self.acc = self
            .acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add((v & !REMOTE) ^ now.seconds().to_bits());
        if v & REMOTE != 0 {
            return;
        }
        if now.seconds() + self.local_dt <= self.until {
            ctx.schedule_in(self.local_dt, self.acc >> 32);
        }
        // deterministic function of state: roughly every third event sends
        // to the next LP with a sub-lookahead delay in (0, 0.16]
        if self.acc.is_multiple_of(3) && self.n > 1 {
            let delay = 0.01 + (self.acc % 16) as f64 * 0.01;
            if now.seconds() + delay <= self.until {
                ctx.send(
                    (ctx.me() + 1) % self.n,
                    delay,
                    REMOTE | (self.acc & 0xffff_ffff),
                );
            }
        }
    }
    fn lookahead(&self) -> f64 {
        1.0 // a lie: actual sends go as low as 0.01
    }
}

impl InitialEvents for Chaotic {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        ctx.schedule_in(0.0, ctx.me() as u64 + 1);
    }
}

impl SaveState for Chaotic {
    type Saved = (u64, u64);
    fn save(&self) -> (u64, u64) {
        (self.acc, self.events)
    }
    fn restore(&mut self, saved: (u64, u64)) {
        self.acc = saved.0;
        self.events = saved.1;
    }
}

#[test]
fn forced_stragglers_bit_identical_across_seeds() {
    let mut total_rollbacks = 0u64;
    for trial in 0..12 {
        let mut rng = SimRng::new(0x7153 + trial);
        let n = 2 + rng.next_below(3) as usize;
        let until = 10.0 + rng.next_below(20) as f64;
        let mk = |rng: &mut SimRng| -> Vec<Chaotic> {
            (0..n)
                .map(|i| Chaotic {
                    n,
                    acc: 0x9e37 + i as u64 + rng.next_below(1000),
                    events: 0,
                    local_dt: 0.05 + (i as f64) * 0.03,
                    until,
                })
                .collect()
        };
        let proto = mk(&mut rng);
        let edges = ring_edges(n);
        let t_end = SimTime::new(until);
        let seq = run_sequential(proto.clone(), &edges, t_end);
        let tw = run_timewarp(proto, &edges, t_end);
        // bit-identical final state
        for i in 0..n {
            assert_eq!(
                seq.lps[i].acc, tw.lps[i].acc,
                "trial {trial} LP {i} state diverged"
            );
            assert_eq!(seq.lps[i].events, tw.lps[i].events, "trial {trial} LP {i}");
            // event-count accounting: committed == sequential deliveries
            assert_eq!(
                seq.events[i], tw.stats[i].committed,
                "trial {trial} LP {i} committed count"
            );
        }
        assert_eq!(
            tw.total_events(),
            tw.total_processed() - tw.total_rolled_back(),
            "trial {trial} accounting"
        );
        total_rollbacks += tw.total_rollbacks();
    }
    // the whole point: optimism must actually have been wrong sometimes
    assert!(
        total_rollbacks > 0,
        "straggler workload never forced a rollback — test lost its teeth"
    );
}

#[test]
fn cmb_repeatable() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0xC3B2 + trial);
        let n = 2 + rng.next_below(3) as usize;
        let delay = rng.range_f64(0.1, 2.0);
        let t_end = SimTime::new(50.0);
        let a = run_cmb(ring(n, delay), &ring_edges(n), t_end);
        let b = run_cmb(ring(n, delay), &ring_edges(n), t_end);
        let ca: Vec<u64> = a.lps.iter().map(|l| l.seen).collect();
        let cb: Vec<u64> = b.lps.iter().map(|l| l.seen).collect();
        assert_eq!(ca, cb);
        assert_eq!(a.total_remote(), b.total_remote());
    }
}
