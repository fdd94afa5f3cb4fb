//! Distributed execution (E4 preview): the same multi-LP workload under
//! the conservative Chandy–Misra–Bryant engine at several lookaheads,
//! showing the null-message overhead the paper attributes to
//! conservative synchronization — then under the optimistic Time Warp
//! engine, which replaces blocking with speculation + rollback and does
//! not care how small the lookahead is. Last, the work-stealing engine
//! with scheduler telemetry on: `--progress` prints the live stderr
//! progress line, and the per-worker counters (steals, parks, deque
//! depths) are written to `parallel_engines.trace.json` as Perfetto
//! counter tracks.
//!
//! ```sh
//! cargo run --release --example parallel_engines [-- --progress]
//! ```

use lsds::core::SimTime;
use lsds::obs::{ProgressReporter, SpanTrace, TelemetryConfig};
use lsds::parallel::cmb::InitialEvents;
use lsds::parallel::{
    run_cmb, run_timestep, run_timewarp, run_worksteal_telemetry, LogicalProcess, LpCtx, SaveState,
    WsConfig,
};
use lsds::trace::{write_chrome_trace, TextTable};
use std::sync::Arc;

/// A site LP: processes local work and forwards results around a ring.
#[derive(Clone)]
struct SiteLp {
    n: usize,
    delay: f64,
    la: f64,
    handled: u64,
}

impl LogicalProcess for SiteLp {
    type Msg = u64;
    fn handle(&mut self, _now: SimTime, job: u64, ctx: &mut LpCtx<'_, u64>) {
        self.handled += 1;
        ctx.send((ctx.me() + 1) % self.n, self.delay, job + 1);
    }
    fn lookahead(&self) -> f64 {
        self.la
    }
}

impl InitialEvents for SiteLp {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        // a single token: traffic is sparse, so idle LPs must block and
        // the conservative engine lives off null-message promises — the
        // regime where lookahead really costs (dense self-clocking
        // traffic needs almost no nulls)
        if ctx.me() == 0 {
            ctx.schedule_in(0.0, 0);
        }
    }
}

impl SaveState for SiteLp {
    type Saved = u64;
    fn save(&self) -> u64 {
        self.handled
    }
    fn restore(&mut self, saved: u64) {
        self.handled = saved;
    }
}

fn lps(n: usize, la: f64) -> Vec<SiteLp> {
    (0..n)
        .map(|_| SiteLp {
            n,
            delay: 1.0,
            la,
            handled: 0,
        })
        .collect()
}

fn edges(n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

fn main() {
    let n = 4;
    let t_end = SimTime::new(2000.0);

    println!("conservative (CMB) execution of a {n}-LP ring to t = 2000 s\n");
    let mut table = TextTable::with_columns(&[
        "lookahead",
        "events",
        "real msgs",
        "null msgs",
        "nulls per event",
    ]);
    for la in [1.0, 0.5, 0.25, 0.1] {
        let report = run_cmb(lps(n, la), &edges(n), t_end);
        let ev = report.total_events();
        let nulls = report.total_nulls();
        table.row(vec![
            format!("{la:.2}"),
            format!("{ev}"),
            format!("{}", report.total_remote()),
            format!("{nulls}"),
            format!("{:.2}", nulls as f64 / ev as f64),
        ]);
    }
    print!("{}", table.render());

    let ts = run_timestep(lps(n, 1.0), 1.0, t_end);
    println!(
        "\ntime-stepped engine (window = lookahead): {} events over {} windows",
        ts.total_events(),
        ts.windows
    );

    // The optimistic engine ignores the declared lookahead entirely: it
    // speculates ahead and repairs mis-speculation with rollbacks and
    // anti-messages, so its cost is wasted work, not null messages.
    let tw = run_timewarp(lps(n, 1.0), &edges(n), t_end);
    println!(
        "\noptimistic (Time Warp) engine: {} events committed, {} executed \
         ({} rolled back in {} rollbacks, {} anti-messages), efficiency {:.2}",
        tw.total_events(),
        tw.total_processed(),
        tw.total_rolled_back(),
        tw.total_rollbacks(),
        tw.total_antis(),
        tw.efficiency()
    );

    // The same conservative synchronization on a worker pool, watched
    // while it runs: the reporter only reads progress, the telemetry
    // sinks only count, so the results are those of the plain run.
    let mut tcfg = TelemetryConfig::new().every_events(64);
    let reporter = std::env::args()
        .any(|a| a == "--progress")
        .then(|| Arc::new(ProgressReporter::new(t_end.seconds())));
    if let Some(rep) = &reporter {
        tcfg = tcfg.with_progress(Arc::clone(rep));
    }
    let cfg = WsConfig {
        workers: 2,
        ..WsConfig::default()
    };
    let (ws, tel) = run_worksteal_telemetry(lps(n, 1.0), &edges(n), t_end, cfg, tcfg);
    // a run shorter than the reporter's wall interval prints only this
    if let Some(rep) = &reporter {
        rep.finish();
    }
    let tracks = tel.counter_tracks();
    let out = std::fs::File::create("parallel_engines.trace.json").expect("create trace file");
    write_chrome_trace(&SpanTrace::new(), &tracks, out).expect("write trace file");
    println!(
        "\nwork-stealing engine ({} workers): {} events, {} steals, {} parks; \
         {} counter tracks written to parallel_engines.trace.json",
        ws.sched.workers,
        ws.total_events(),
        tel.counter("ws.steals"),
        tel.counter("ws.parks"),
        tracks.len()
    );
    println!("same results, different synchronization cost — the E4 trade-off.");
}
