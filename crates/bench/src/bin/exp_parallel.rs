//! E4 — centralized vs distributed execution.
//!
//! The taxonomy splits engines into centralized (one execution unit) and
//! distributed (multiple processors); the paper notes that distributed
//! simulation "has not significantly impressed the general simulation
//! community" because efficiency takes real effort (§3, citing Misra 1986
//! and Fujimoto 1993). The experiment runs the same partitioned workload:
//!
//! * centralized — all partitions in one event-driven engine;
//! * distributed — one logical process per partition under conservative
//!   CMB synchronization, with a lookahead sweep showing the
//!   null-message overhead that conservatism costs;
//! * work-stealing — the same conservative synchronization on a fixed
//!   worker pool (`--workers N`, default host parallelism), where the
//!   sync column counts shared-memory bound updates instead of nulls.

#![expect(
    clippy::disallowed_methods,
    reason = "the exhibits' wall-clock columns time the simulator from outside; no simulated state reads the clock"
)]

use lsds_core::{Ctx, EventDriven, Model, SimTime};
use lsds_parallel::cmb::InitialEvents;
use lsds_parallel::{run_cmb, run_worksteal_cfg, LogicalProcess, LpCtx, WsConfig};
use lsds_trace::TextTable;
use std::time::Instant;

/// Per-event model computation (identical in both engines) — enough work
/// that parallelism has something to win.
fn busy_work(seed: u64, iters: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0xD1B5;
    }
    x
}

const WORK_ITERS: u32 = 20_000;
const INTERNAL_PERIOD: f64 = 0.1;
const CROSS_EVERY: u64 = 10;
const CROSS_DELAY: f64 = 1.0;

// ---- centralized version ----

struct Central {
    n_parts: usize,
    counters: Vec<u64>,
    sink: u64,
}

#[derive(Clone, Copy)]
enum CEv {
    Internal { part: usize },
    Cross { part: usize },
}

impl Model for Central {
    type Event = CEv;
    fn handle(&mut self, ev: CEv, ctx: &mut Ctx<'_, CEv>) {
        match ev {
            CEv::Internal { part } => {
                self.counters[part] += 1;
                self.sink ^= busy_work(self.counters[part], WORK_ITERS);
                ctx.schedule_in(INTERNAL_PERIOD, CEv::Internal { part });
                if self.counters[part].is_multiple_of(CROSS_EVERY) {
                    let next = (part + 1) % self.n_parts;
                    ctx.schedule_in(CROSS_DELAY, CEv::Cross { part: next });
                }
            }
            CEv::Cross { part } => {
                self.counters[part] += 1;
                self.sink ^= busy_work(self.counters[part], WORK_ITERS);
            }
        }
    }
}

fn run_central(n_parts: usize, horizon: f64) -> (u64, f64) {
    let mut sim = EventDriven::new(Central {
        n_parts,
        counters: vec![0; n_parts],
        sink: 0,
    });
    for part in 0..n_parts {
        sim.schedule(SimTime::ZERO, CEv::Internal { part });
    }
    let start = Instant::now();
    let stats = sim.run_until(SimTime::new(horizon));
    (stats.events, start.elapsed().as_secs_f64())
}

// ---- distributed version ----

struct PartLp {
    n_parts: usize,
    la: f64,
    counter: u64,
    sink: u64,
}

#[derive(Clone, Copy)]
enum LEv {
    Internal,
    Cross,
}

impl LogicalProcess for PartLp {
    type Msg = LEv;
    fn handle(&mut self, _now: SimTime, ev: LEv, ctx: &mut LpCtx<'_, LEv>) {
        match ev {
            LEv::Internal => {
                self.counter += 1;
                self.sink ^= busy_work(self.counter, WORK_ITERS);
                ctx.schedule_in(INTERNAL_PERIOD, LEv::Internal);
                if self.counter.is_multiple_of(CROSS_EVERY) {
                    ctx.send((ctx.me() + 1) % self.n_parts, CROSS_DELAY, LEv::Cross);
                }
            }
            LEv::Cross => {
                self.counter += 1;
                self.sink ^= busy_work(self.counter, WORK_ITERS);
            }
        }
    }
    fn lookahead(&self) -> f64 {
        self.la
    }
}

impl InitialEvents for PartLp {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, LEv>) {
        ctx.schedule_in(0.0, LEv::Internal);
    }
}

fn run_distributed(n_parts: usize, la: f64, horizon: f64) -> (u64, u64, f64) {
    let lps: Vec<PartLp> = (0..n_parts)
        .map(|_| PartLp {
            n_parts,
            la,
            counter: 0,
            sink: 0,
        })
        .collect();
    let edges: Vec<(usize, usize)> = (0..n_parts).map(|i| (i, (i + 1) % n_parts)).collect();
    let start = Instant::now();
    let report = run_cmb(lps, &edges, SimTime::new(horizon));
    let wall = start.elapsed().as_secs_f64();
    (report.total_events(), report.total_nulls(), wall)
}

/// Same partitioned workload on the work-stealing pool; returns
/// `(events, bound updates, actual workers, wall seconds)`.
fn run_worksteal_engine(
    n_parts: usize,
    la: f64,
    horizon: f64,
    workers: usize,
) -> (u64, u64, usize, f64) {
    let lps: Vec<PartLp> = (0..n_parts)
        .map(|_| PartLp {
            n_parts,
            la,
            counter: 0,
            sink: 0,
        })
        .collect();
    let edges: Vec<(usize, usize)> = (0..n_parts).map(|i| (i, (i + 1) % n_parts)).collect();
    let start = Instant::now();
    let report = run_worksteal_cfg(
        lps,
        &edges,
        SimTime::new(horizon),
        WsConfig {
            workers,
            ..WsConfig::default()
        },
    );
    let wall = start.elapsed().as_secs_f64();
    (
        report.total_events(),
        report.sched.bound_updates,
        report.sched.workers,
        wall,
    )
}

/// Value of `--workers N`; absent or 0 lets the scheduler use the host's
/// available parallelism.
fn workers_arg(args: &[String]) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == "--workers") else {
        return Ok(0);
    };
    let value = args.get(i + 1).ok_or("--workers needs a value")?;
    value
        .parse()
        .map_err(|_| format!("--workers takes a number, got {value:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ws_workers = workers_arg(&args).unwrap_or_else(|why| {
        eprintln!("usage: exp_parallel [--workers N] ({why})");
        std::process::exit(2);
    });
    let horizon = 200.0;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("E4 — centralized vs distributed execution (horizon {horizon} s)");
    println!("host parallelism: {cores} core(s)\n");

    let mut table = TextTable::with_columns(&[
        "partitions",
        "engine",
        "events",
        "nulls",
        "wall (ms)",
        "speedup",
    ]);
    for &parts in &[2usize, 4, 8] {
        let (ev_c, wall_c) = run_central(parts, horizon);
        table.row(vec![
            format!("{parts}"),
            "centralized".into(),
            format!("{ev_c}"),
            "-".into(),
            format!("{:.0}", wall_c * 1e3),
            "1.00x".into(),
        ]);
        let (ev_d, nulls, wall_d) = run_distributed(parts, CROSS_DELAY, horizon);
        table.row(vec![
            format!("{parts}"),
            "CMB distributed".into(),
            format!("{ev_d}"),
            format!("{nulls}"),
            format!("{:.0}", wall_d * 1e3),
            format!("{:.2}x", wall_c / wall_d),
        ]);
        assert_eq!(ev_c, ev_d, "both engines process identical events");
        let (ev_w, bound_updates, used, wall_w) =
            run_worksteal_engine(parts, CROSS_DELAY, horizon, ws_workers);
        table.row(vec![
            format!("{parts}"),
            format!("worksteal ({used}w)"),
            format!("{ev_w}"),
            format!("{bound_updates}*"),
            format!("{:.0}", wall_w * 1e3),
            format!("{:.2}x", wall_c / wall_w),
        ]);
        assert_eq!(
            ev_c, ev_w,
            "work-stealing engine processes identical events"
        );
    }
    print!("{}", table.render());
    println!("(* shared-memory channel-bound updates, the worksteal analog of nulls)");

    println!("\nnull-message overhead vs lookahead (8 partitions):");
    let mut t2 = TextTable::with_columns(&["lookahead", "nulls", "nulls/event", "wall (ms)"]);
    for &la in &[1.0, 0.5, 0.2, 0.1] {
        let (ev, nulls, wall) = run_distributed(8, la, horizon);
        t2.row(vec![
            format!("{la}"),
            format!("{nulls}"),
            format!("{:.3}", nulls as f64 / ev as f64),
            format!("{:.0}", wall * 1e3),
        ]);
    }
    print!("{}", t2.render());
    println!(
        "\nReading: speedup is bounded by the host's cores — on a single-core\n\
         host the interesting number is the *overhead*: CMB costs only a few\n\
         percent over the centralized engine while preserving identical\n\
         results. With multiple cores the per-window concurrency converts\n\
         into wall-clock speedup; shrinking lookahead buys nothing here but\n\
         null traffic — the \"considerable efforts and expertise\" the paper\n\
         quotes (Fujimoto 1993)."
    );
}
