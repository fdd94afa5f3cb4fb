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
        let case = format!("n={n} delay={delay} p={periods}");
        let t_end = delay * periods as f64;
        assert_every_engine_matches_sequential(&case, || ring(n, delay), delay, t_end, |l| l.seen);
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

/// Runs `mk()` under every engine and holds each to the sequential
/// oracle: same delivered-event count, same final state of every LP.
fn assert_every_engine_matches_sequential<L, S>(
    case: &str,
    mk: impl Fn() -> Vec<L>,
    delta: f64,
    t_end: f64,
    state: impl Fn(&L) -> S,
) where
    L: SaveState + InitialEvents,
    L::Msg: Clone,
    S: PartialEq + std::fmt::Debug,
{
    let edges = ring_edges(mk().len());
    let mut rows = run_every_engine(mk, &edges, delta, SimTime::new(t_end))
        .into_iter()
        .map(|(engine, outcome)| {
            let (events, lps) =
                outcome.unwrap_or_else(|m| panic!("{case}: {engine} panicked: {m}"));
            (engine, events, lps.iter().map(&state).collect::<Vec<S>>())
        });
    let (_, oracle_events, oracle_state) = rows.next().expect("sequential row");
    for (engine, events, final_state) in rows {
        assert_eq!(events, oracle_events, "{case}: {engine} event count");
        assert_eq!(final_state, oracle_state, "{case}: {engine} final state");
    }
}

/// Event alphabet of the two synchronization-cost shapes below.
#[derive(Clone, Copy)]
enum Ev {
    /// Locally scheduled work (self-clocking chain).
    Internal,
    /// Cross-LP notification: folds into state, schedules nothing.
    Cross(u64),
}

const E4_PERIOD: f64 = 0.1;
const E4_CROSS_EVERY: u64 = 5;

/// The E4 ring (`exp_parallel`'s workload): a dense internal chain per LP
/// plus cross traffic at `delay == lookahead`, so shrinking the lookahead
/// multiplies the synchronization work while the event set stays fixed.
#[derive(Clone)]
struct E4Lp {
    n: usize,
    la: f64,
    horizon: f64,
    counter: u64,
    sink: u64,
}

impl LogicalProcess for E4Lp {
    type Msg = Ev;
    fn handle(&mut self, now: SimTime, ev: Ev, ctx: &mut LpCtx<'_, Ev>) {
        self.counter += 1;
        let v = match ev {
            Ev::Internal => self.counter,
            Ev::Cross(x) => x,
        };
        self.sink = (self.sink ^ v ^ now.seconds().to_bits())
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
        if let Ev::Internal = ev {
            if now.seconds() + E4_PERIOD <= self.horizon {
                ctx.schedule_in(E4_PERIOD, Ev::Internal);
            }
            if self.counter.is_multiple_of(E4_CROSS_EVERY)
                && now.seconds() + self.la <= self.horizon
            {
                ctx.send((ctx.me() + 1) % self.n, self.la, Ev::Cross(self.sink));
            }
        }
    }
    fn lookahead(&self) -> f64 {
        self.la
    }
}

impl InitialEvents for E4Lp {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, Ev>) {
        ctx.schedule_in(0.0, Ev::Internal);
    }
}

impl SaveState for E4Lp {
    type Saved = (u64, u64);
    fn save(&self) -> (u64, u64) {
        (self.counter, self.sink)
    }
    fn restore(&mut self, saved: (u64, u64)) {
        (self.counter, self.sink) = saved;
    }
}

/// From comfortable lookahead down to 1/20 of the internal period, where
/// CMB needs twenty null rounds per event and Time Warp speculates across
/// many pending cross messages.
#[test]
fn engines_agree_on_e4_ring_across_lookahead_sweep() {
    let (n, horizon) = (4, 20.0);
    for la in [0.5, 0.1, 0.02, 0.005] {
        let mk = || {
            vec![
                E4Lp {
                    n,
                    la,
                    horizon,
                    counter: 0,
                    sink: 0,
                };
                n
            ]
        };
        let case = format!("e4 la={la}");
        assert_every_engine_matches_sequential(&case, mk, la, horizon, |l| (l.counter, l.sink));
    }
}

const SCALE_CROSS_EVERY: u64 = 32;
const SCALE_LA: f64 = 1.0;

/// The scale shape: each LP burns a fixed budget of jitter-spaced job
/// completions (`0.5 + u` apart, `u ∈ [0, 1)`, from a per-LP stream that
/// is part of the rolled-back state) with a cross notification every 32.
#[derive(Clone)]
struct ScaleLp {
    n: usize,
    jobs_left: u64,
    rng: u64,
    done: u64,
    acc: u64,
}

impl LogicalProcess for ScaleLp {
    type Msg = Ev;
    fn handle(&mut self, now: SimTime, ev: Ev, ctx: &mut LpCtx<'_, Ev>) {
        self.done += 1;
        let v = match ev {
            Ev::Internal => self.done,
            Ev::Cross(x) => x,
        };
        self.acc = self
            .acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(v ^ now.seconds().to_bits());
        if let Ev::Internal = ev {
            if self.jobs_left > 0 {
                self.jobs_left -= 1;
                self.rng = self
                    .rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
                ctx.schedule_in(0.5 + u, Ev::Internal);
            }
            if self.done.is_multiple_of(SCALE_CROSS_EVERY) {
                ctx.send((ctx.me() + 1) % self.n, SCALE_LA, Ev::Cross(self.acc));
            }
        }
    }
    fn lookahead(&self) -> f64 {
        SCALE_LA
    }
}

impl InitialEvents for ScaleLp {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, Ev>) {
        ctx.schedule_in(0.0, Ev::Internal);
    }
}

impl SaveState for ScaleLp {
    type Saved = (u64, u64, u64, u64);
    fn save(&self) -> (u64, u64, u64, u64) {
        (self.jobs_left, self.rng, self.done, self.acc)
    }
    fn restore(&mut self, saved: (u64, u64, u64, u64)) {
        (self.jobs_left, self.rng, self.done, self.acc) = saved;
    }
}

#[test]
fn engines_agree_on_scale_shape() {
    let (n, jobs_per_lp) = (4, 500u64);
    let mk = || {
        (0..n)
            .map(|i| ScaleLp {
                n,
                jobs_left: jobs_per_lp,
                rng: 0x5CA1E ^ (i as u64).wrapping_mul(0x9E37_79B9),
                done: 0,
                acc: 0,
            })
            .collect::<Vec<_>>()
    };
    // past the last completion (gaps are < 1.5) and its cross send
    let t_end = jobs_per_lp as f64 * 1.5 + SCALE_LA;
    assert_every_engine_matches_sequential("scale", mk, SCALE_LA, t_end, |l| (l.done, l.acc));
}

/// Exact cross-LP ties everywhere: a ring under lookahead 1 where every
/// time is an integer. Each LP starts six tokens, two at each of t = 0, 1
/// and 2; a handler folds `(now, msg)` into an order-sensitive hash and
/// passes the token on by a choice drawn from that hash — a local event
/// at +0 or +1, or a send to the next LP at +1 or +2. So locals tie with
/// remotes from other LPs at the same instant, a later send on an edge can
/// land before an earlier one, and any engine that orders one tie
/// differently ends with other hashes.
#[derive(Clone)]
struct TieRing {
    n: usize,
    hash: u64,
    events: u64,
}

impl LogicalProcess for TieRing {
    /// `token << 1 | z`, with `z` set when the token's last hop was a
    /// zero-delay local one (it may not take another, so time advances).
    type Msg = u64;
    fn handle(&mut self, now: SimTime, msg: u64, ctx: &mut LpCtx<'_, u64>) {
        self.events += 1;
        self.hash = (self.hash ^ now.seconds().to_bits() ^ msg.rotate_left(32))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
        let (token, next) = (msg & !1, (ctx.me() + 1) % self.n);
        match (self.hash >> 40) % 4 {
            0 if msg & 1 == 0 => ctx.schedule_in(0.0, token | 1),
            0 | 1 => ctx.schedule_in(1.0, token),
            2 => ctx.send(next, 1.0, token),
            _ => ctx.send(next, 2.0, token),
        }
    }
    fn lookahead(&self) -> f64 {
        1.0
    }
}

impl InitialEvents for TieRing {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        for i in 0..6u64 {
            let token = (ctx.me() as u64 * 6 + i) << 1;
            ctx.schedule_in((i % 3) as f64, token);
        }
    }
}

impl SaveState for TieRing {
    type Saved = (u64, u64);
    fn save(&self) -> (u64, u64) {
        (self.hash, self.events)
    }
    fn restore(&mut self, saved: (u64, u64)) {
        (self.hash, self.events) = saved;
    }
}

#[test]
fn engines_agree_on_exact_cross_lp_ties() {
    for n in [2, 3, 5] {
        for delta in [0.5, 1.0] {
            let mk = || {
                (0..n)
                    .map(|i| TieRing {
                        n,
                        hash: i as u64,
                        events: 0,
                    })
                    .collect::<Vec<_>>()
            };
            let case = format!("ties n={n} delta={delta}");
            assert_every_engine_matches_sequential(&case, mk, delta, 40.0, |l| (l.events, l.hash));
        }
    }
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

/// [`Chaotic`] with one more field, which `handle` increments and `save()`
/// leaves out: an incomplete [`SaveState`]. Every rolled-back delivery
/// leaves its increment behind.
#[derive(Clone)]
struct Leaky {
    inner: Chaotic,
    skew: u64,
}

impl LogicalProcess for Leaky {
    type Msg = u64;
    fn handle(&mut self, now: SimTime, v: u64, ctx: &mut LpCtx<'_, u64>) {
        self.skew += 1;
        self.inner.handle(now, v, ctx);
    }
    fn lookahead(&self) -> f64 {
        self.inner.lookahead()
    }
}

impl InitialEvents for Leaky {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        self.inner.initial_events(ctx);
    }
}

impl SaveState for Leaky {
    type Saved = (u64, u64);
    fn save(&self) -> (u64, u64) {
        self.inner.save()
    }
    fn restore(&mut self, saved: (u64, u64)) {
        self.inner.restore(saved);
    }
}

const STRAGGLER_TRIALS: u64 = 12;

/// One forced-straggler trial: its LPs, ring edges and horizon.
fn straggler_trial(trial: u64) -> (Vec<Chaotic>, Vec<(usize, usize)>, SimTime) {
    let mut rng = SimRng::new(0x7153 + trial);
    let n = 2 + rng.next_below(3) as usize;
    let until = 10.0 + rng.next_below(20) as f64;
    let lps = (0..n)
        .map(|i| Chaotic {
            n,
            acc: 0x9e37 + i as u64 + rng.next_below(1000),
            events: 0,
            local_dt: 0.05 + (i as f64) * 0.03,
            until,
        })
        .collect();
    (lps, ring_edges(n), SimTime::new(until))
}

#[test]
fn forced_stragglers_bit_identical_across_seeds() {
    let mut total_rollbacks = 0u64;
    for trial in 0..STRAGGLER_TRIALS {
        let (proto, edges, t_end) = straggler_trial(trial);
        let n = proto.len();
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

/// The forced-rollback harness must see state that `save()` omits: on the
/// same trials, a model with an incomplete [`SaveState`] has to end Time
/// Warp in a different state than the sequential run at least once.
#[test]
fn forced_stragglers_expose_state_missing_from_save() {
    let diverged = (0..STRAGGLER_TRIALS).any(|trial| {
        let (proto, edges, t_end) = straggler_trial(trial);
        let leaky: Vec<Leaky> = proto
            .into_iter()
            .map(|inner| Leaky { inner, skew: 0 })
            .collect();
        let seq = run_sequential(leaky.clone(), &edges, t_end);
        let tw = run_timewarp(leaky, &edges, t_end);
        seq.lps.iter().zip(&tw.lps).any(|(s, t)| s.skew != t.skew)
    });
    assert!(
        diverged,
        "no trial rolled back a leaky LP — the harness cannot see a field save() omits"
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
