//! Telemetry bit-identity and counter-invariant properties across every
//! engine: attaching an [`lsds_obs::EngineTelemetry`] sink must never
//! change a single bit of simulation state (the sink observes scheduler
//! internals, it does not participate in scheduling), its counters must
//! respect the engine's own accounting identities, and every exported
//! series must carry monotone virtual-time stamps — the structural
//! guarantee that makes the Perfetto counter tracks renderable.

use lsds_core::SimTime;
use lsds_obs::{SpanTrace, TelemetryConfig, TelemetryReport};
use lsds_parallel::cmb::InitialEvents;
use lsds_parallel::timewarp::SaveState;
use lsds_parallel::{
    run_cmb, run_cmb_telemetry, run_sequential, run_sequential_telemetry, run_timestep,
    run_timestep_telemetry, run_timewarp_cfg, run_timewarp_telemetry, run_worksteal_cfg,
    run_worksteal_telemetry, LogicalProcess, LpCtx, TwConfig, WsConfig,
};
use lsds_trace::{validate_chrome_trace, write_chrome_trace};

const REMOTE: u64 = 1 << 63;

/// Skewed ring workload shared by every engine comparison: per-LP event
/// rate and per-event state-mixing cost vary, some events poke the next
/// LP. Pure state computation — results are a deterministic function of
/// delivery order, which is exactly what telemetry must not disturb.
#[derive(Clone)]
struct SkewLp {
    n: usize,
    acc: u64,
    events: u64,
    local_dt: f64,
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
        if h.is_multiple_of(3) && self.n > 1 && now.seconds() + self.la <= self.until {
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

impl SaveState for SkewLp {
    type Saved = (u64, u64);
    fn save(&self) -> (u64, u64) {
        (self.acc, self.events)
    }
    fn restore(&mut self, saved: (u64, u64)) {
        self.acc = saved.0;
        self.events = saved.1;
    }
}

fn workload(n: usize, until: f64) -> (Vec<SkewLp>, Vec<(usize, usize)>) {
    let lps = (0..n)
        .map(|i| SkewLp {
            n,
            acc: 0xBEEF + i as u64,
            events: 0,
            local_dt: if i == 0 { 0.02 } else { 0.25 },
            work: if i == 0 { 400 } else { 8 },
            until,
            la: 0.5,
        })
        .collect();
    let edges = (0..n).map(|i| (i, (i + 1) % n)).collect();
    (lps, edges)
}

fn state_of(lps: &[SkewLp]) -> Vec<(u64, u64)> {
    lps.iter().map(|l| (l.acc, l.events)).collect()
}

/// Cadence small enough that every engine flushes several times.
fn tcfg() -> TelemetryConfig {
    TelemetryConfig::new().every_events(32)
}

fn assert_series_monotone(tel: &TelemetryReport) {
    for (name, track, points) in tel.series_lanes() {
        assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "series {name}[{track}] has non-monotone timestamps"
        );
        assert!(
            points.iter().all(|p| p.0.is_finite()),
            "series {name}[{track}] has non-finite timestamps"
        );
    }
}

const N: usize = 6;
const UNTIL: f64 = 30.0;

/// More workers than this host may have cores and small batches: every
/// scheduler counter moves.
const WS: WsConfig = WsConfig {
    workers: 3,
    batch: 8,
};

#[test]
fn sequential_bit_identical_with_telemetry() {
    let (lps, edges) = workload(N, UNTIL);
    let plain = run_sequential(lps, &edges, SimTime::new(UNTIL));
    let (lps, edges) = workload(N, UNTIL);
    let (report, tel) = run_sequential_telemetry(lps, &edges, SimTime::new(UNTIL), tcfg());
    assert_eq!(state_of(&report.lps), state_of(&plain.lps));
    assert_eq!(tel.events(), report.total_events());
    assert_series_monotone(&tel);
}

#[test]
fn cmb_bit_identical_with_telemetry() {
    let (lps, edges) = workload(N, UNTIL);
    let plain = run_cmb(lps, &edges, SimTime::new(UNTIL));
    let (lps, edges) = workload(N, UNTIL);
    let (report, tel) = run_cmb_telemetry(lps, &edges, SimTime::new(UNTIL), tcfg());
    assert_eq!(state_of(&report.lps), state_of(&plain.lps));
    assert_eq!(tel.events(), report.total_events());
    // Null messages and blocks mirror this run's own stats exactly.
    assert_eq!(tel.counter("cmb.nulls"), report.total_nulls());
    assert_series_monotone(&tel);
}

#[test]
fn timestep_bit_identical_with_telemetry() {
    let (lps, _) = workload(N, UNTIL);
    let plain = run_timestep(lps, 0.5, SimTime::new(UNTIL));
    let (lps, _) = workload(N, UNTIL);
    let (report, tel) = run_timestep_telemetry(lps, 0.5, SimTime::new(UNTIL), tcfg());
    assert_eq!(state_of(&report.lps), state_of(&plain.lps));
    assert_eq!(tel.events(), report.total_events());
    // Barrier waits are structural: every LP crosses every window.
    let waits = tel.counter("ts.barrier_waits");
    assert!(waits > 0 && waits.is_multiple_of(N as u64), "waits {waits}");
    assert_series_monotone(&tel);
}

#[test]
fn timewarp_bit_identical_with_telemetry_and_anti_invariant() {
    let cfg = TwConfig { window: 2.0 };
    let (lps, edges) = workload(N, UNTIL);
    let plain = run_timewarp_cfg(lps, &edges, SimTime::new(UNTIL), cfg);
    let (lps, edges) = workload(N, UNTIL);
    let (report, tel) = run_timewarp_telemetry(lps, &edges, SimTime::new(UNTIL), cfg, tcfg());
    assert_eq!(state_of(&report.lps), state_of(&plain.lps));
    // Counters mirror this run's own stats (rollback counts are
    // timing-dependent, so compare within the run, never across runs).
    assert_eq!(tel.events(), report.total_processed());
    assert_eq!(tel.counter("tw.rollbacks"), report.total_rollbacks());
    assert_eq!(tel.counter("tw.rolled_back"), report.total_rolled_back());
    assert_eq!(tel.counter("tw.antis"), report.total_antis());
    // An anti-message cancels a previously sent positive message, so
    // antis can never exceed real sends.
    let remote: u64 = report.stats.iter().map(|s| s.remote_sent).sum();
    assert!(
        tel.counter("tw.antis") <= remote,
        "antis {} > remote sends {remote}",
        tel.counter("tw.antis")
    );
    // Undone plus committed is exactly what was executed.
    assert_eq!(
        report.total_processed(),
        report.total_events() + report.total_rolled_back()
    );
    assert_series_monotone(&tel);
}

#[test]
fn worksteal_bit_identical_with_telemetry_and_steal_invariant() {
    let (lps, edges) = workload(N, UNTIL);
    let plain = run_worksteal_cfg(lps, &edges, SimTime::new(UNTIL), WS);
    let (lps, edges) = workload(N, UNTIL);
    let (report, tel) = run_worksteal_telemetry(lps, &edges, SimTime::new(UNTIL), WS, tcfg());
    assert_eq!(state_of(&report.lps), state_of(&plain.lps));
    assert_eq!(tel.events(), report.total_events());
    // A steal hands an activation to a thief, so steals can never
    // exceed activations.
    assert!(
        tel.counter("ws.steals") <= tel.counter("ws.activations"),
        "steals {} > activations {}",
        tel.counter("ws.steals"),
        tel.counter("ws.activations")
    );
    assert_eq!(tel.counter("ws.steals"), report.sched.steals);
    assert_eq!(
        tel.counter("ws.activations"),
        report.stats.iter().map(|s| s.activations).sum::<u64>()
    );
    assert_series_monotone(&tel);
}

/// A real scheduler's series, exported as Perfetto counter tracks, come
/// back through the parser as counter samples.
#[test]
fn worksteal_counter_tracks_export_and_validate() {
    let (lps, edges) = workload(N, UNTIL);
    let (_, tel) = run_worksteal_telemetry(lps, &edges, SimTime::new(UNTIL), WS, tcfg());
    let mut doc = Vec::new();
    write_chrome_trace(&SpanTrace::new(), &tel.counter_tracks(), &mut doc)
        .expect("render counter tracks");
    let text = String::from_utf8(doc).expect("chrome trace is UTF-8");
    let (slices, samples) = validate_chrome_trace(&text).expect("trace must validate");
    assert_eq!(slices, 0, "no spans were recorded");
    assert!(samples > 0, "counter tracks must carry samples");
}

/// The sixth engine: the centralized core executor, telemetry attached
/// via the state-preserving converter.
#[test]
fn core_engine_bit_identical_with_telemetry() {
    use lsds_core::{Ctx, EventDriven, Model};
    use lsds_obs::EngineTelemetry;

    struct Hold {
        acc: u64,
        left: u32,
    }
    impl Model for Hold {
        type Event = u64;
        fn handle(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
            self.acc = self.acc.wrapping_mul(0x9E3779B97F4A7C15) ^ ev;
            if self.left > 0 {
                self.left -= 1;
                ctx.schedule_in(0.125 + (self.acc % 7) as f64 * 0.01, self.acc >> 8);
            }
        }
    }

    let run_plain = || {
        let mut sim = EventDriven::new(Hold { acc: 1, left: 500 });
        sim.schedule(SimTime::ZERO, 42);
        sim.run();
        sim.into_model().acc
    };
    let mut sim =
        EventDriven::new(Hold { acc: 1, left: 500 }).with_telemetry(EngineTelemetry::new(tcfg()));
    sim.schedule(SimTime::ZERO, 42);
    sim.run();
    let acc = sim.model().acc;
    let tel = TelemetryReport::merge(vec![sim.into_telemetry()]);
    assert_eq!(acc, run_plain(), "telemetry perturbed the core engine");
    assert_eq!(tel.events(), 501);
    assert!(tel.series_on("engine.queue_len", 0).is_some());
    assert_series_monotone(&tel);
}

/// Telemetry-off is the compile-time default: the plain entry points use
/// [`lsds_obs::NoopTelemetry`] (`ENABLED = false`), asserted here so the
/// zero-cost claim is pinned by a test, not a comment.
#[test]
fn disabled_telemetry_is_zero_sized_and_off() {
    use lsds_obs::{NoopTelemetry, Telemetry};
    const { assert!(!NoopTelemetry::ENABLED) }
    assert_eq!(std::mem::size_of::<NoopTelemetry>(), 0);
}
