//! lsds-lint: allow(wall-clock) reason="a benchmark driver times the product from outside; the clock never reaches simulated state"
//!
//! `phold_par` — PHOLD on the work-stealing engine, the shape the Erlang
//! PDES paper (arXiv:1206.2775) evaluates on: a fixed population of
//! events hops between logical processes, each handler does `grain`
//! iterations of state mixing, and a fixed share of hops crosses to
//! another LP. Synchronisation is the dominant layer; LPs (16) outnumber
//! cores, the case the README recommends work stealing for.
//!
//! Remote hops are sent at *exactly* the lookahead. An LP's clock never
//! goes back, so the timestamps it sends along one edge never decrease —
//! the order conservative channel clocks assume. (A probe that drew the
//! remote delay at random ≥ lookahead silently gave cmb and worksteal
//! other event counts than sequential and Time Warp in a release build.)

use super::{field, fields, named, timed_setup, InputFile, Mode, Outcome, Size, Trial};
use crate::product::{self, InitialEvents, LogicalProcess, LpCtx, SaveState, SimTime, SpanKind};
use crate::shim::{self, LayerTimes, ShimCounters, Span, TimedLp};
use crate::util::{outcome, Rng};
use std::path::Path;
use std::time::Instant;

/// PHOLD parameters (`phold.txt`: one `name value` line per parameter, one
/// `lp_seed` line per LP and one `event lp delay payload` line per initial
/// event).
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Logical processes.
    pub lps: usize,
    /// Hops in a thousand that go to another LP.
    pub remote_permille: u32,
    /// Lookahead = delay of every remote hop.
    pub lookahead: f64,
    /// Mean delay of a local hop (exponential).
    pub mean_delay: f64,
    /// State-mixing iterations per event.
    pub grain: u32,
    /// Simulated horizon.
    pub t_end: f64,
    /// Per-LP RNG seeds.
    pub seeds: Vec<u64>,
    /// Per-LP initial events: `(delay, payload)`.
    pub initial: Vec<Vec<(f64, u64)>>,
}

/// Events each LP starts with.
const EVENTS_PER_LP: u32 = 16;

impl Params {
    fn for_size(size: Size) -> Params {
        let (lps, grain, t_end) = match size {
            Size::Full => (16, 2_000, 18_000.0),
            Size::Smoke => (16, 50, 60.0),
        };
        Params {
            lps,
            remote_permille: 100,
            lookahead: 1.0,
            mean_delay: 1.0,
            grain,
            t_end,
            seeds: Vec::new(),
            initial: Vec::new(),
        }
    }

    /// The same model with another LP count, grain and horizon (the layer
    /// probes resize it; seeds and initial events of LPs beyond the input's
    /// are derived from the input's).
    pub fn resized(&self, lps: usize, grain: u32, t_end: f64) -> Params {
        let mut p = self.clone();
        p.lps = lps;
        p.grain = grain;
        p.t_end = t_end;
        let base = self.seeds.first().copied().unwrap_or(1);
        p.seeds = (0..lps as u64)
            .map(|i| {
                self.seeds
                    .get(i as usize)
                    .copied()
                    .unwrap_or(base ^ ((i + 1) << 20))
            })
            .collect();
        p.initial = (0..lps)
            .map(|i| self.initial[i % self.initial.len()].clone())
            .collect();
        p
    }

    /// Ring edges plus a skip edge per LP (`i → i+1`, `i → i+5`).
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let n = self.lps;
        let mut e = Vec::new();
        for i in 0..n {
            for step in [1, 5] {
                let d = (i + step) % n;
                if d != i && !e.contains(&(i, d)) {
                    e.push((i, d));
                }
            }
        }
        e
    }

    /// Fresh LPs in their initial state.
    pub fn build(&self) -> Vec<PholdLp> {
        (0..self.lps)
            .map(|me| {
                let mut out = Vec::new();
                for step in [1, 5] {
                    let d = (me + step) % self.lps;
                    if d != me && !out.contains(&d) {
                        out.push(d);
                    }
                }
                PholdLp {
                    rng: Rng::new(self.seeds[me], 50),
                    last_sent: vec![0.0; out.len()],
                    out,
                    remote_permille: self.remote_permille,
                    lookahead: self.lookahead,
                    mean_delay: self.mean_delay,
                    grain: self.grain,
                    initial: self.initial[me].clone(),
                    acc: self.seeds[me],
                    events: 0,
                    monotone: true,
                }
            })
            .collect()
    }
}

/// Generates `phold.txt`.
pub fn generate(seed: u64, size: Size) -> Vec<InputFile> {
    let p = Params::for_size(size);
    let mut rng = Rng::new(seed, 51);
    let mut text = format!(
        "lps {}\nremote_permille {}\nlookahead {}\nmean_delay {}\ngrain {}\nt_end {}\n",
        p.lps, p.remote_permille, p.lookahead, p.mean_delay, p.grain, p.t_end
    );
    for _ in 0..p.lps {
        text.push_str(&format!("lp_seed {}\n", rng.next_u64()));
    }
    for lp in 0..p.lps {
        for _ in 0..EVENTS_PER_LP {
            let (delay, payload) = (rng.exp(p.mean_delay), rng.next_u64() >> 8);
            text.push_str(&format!("event {lp} {delay} {payload}\n"));
        }
    }
    vec![("phold.txt", text.into_bytes())]
}

/// Reads `phold.txt`.
pub fn load(dir: &Path) -> std::io::Result<Params> {
    let text = std::fs::read_to_string(dir.join("phold.txt"))?;
    let recs: Vec<Vec<&str>> = text.lines().map(fields).collect();
    let lps: usize = named(&recs, "lps")?;
    let mut initial = vec![Vec::new(); lps];
    for r in recs.iter().filter(|r| r.first() == Some(&"event")) {
        let lp: usize = field(r, 1, "event LP")?;
        let event = (field(r, 2, "event delay")?, field(r, 3, "event payload")?);
        initial
            .get_mut(lp)
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "event for an unknown LP")
            })?
            .push(event);
    }
    let p = Params {
        lps,
        remote_permille: named(&recs, "remote_permille")?,
        lookahead: named(&recs, "lookahead")?,
        mean_delay: named(&recs, "mean_delay")?,
        grain: named(&recs, "grain")?,
        t_end: named(&recs, "t_end")?,
        seeds: recs
            .iter()
            .filter(|r| r.first() == Some(&"lp_seed"))
            .map(|r| field(r, 1, "lp_seed"))
            .collect::<std::io::Result<Vec<u64>>>()?,
        initial,
    };
    if p.seeds.len() != p.lps
        || p.initial.iter().any(|events| {
            events.is_empty() || events.iter().any(|&(dt, _)| !(dt.is_finite() && dt >= 0.0))
        })
        || p.lps < 2
        || p.lookahead.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        || p.remote_permille > 1000
    {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "phold.txt: inconsistent parameters",
        ));
    }
    Ok(p)
}

/// One PHOLD logical process.
#[derive(Debug, Clone)]
pub struct PholdLp {
    rng: Rng,
    out: Vec<usize>,
    remote_permille: u32,
    lookahead: f64,
    mean_delay: f64,
    grain: u32,
    initial: Vec<(f64, u64)>,
    /// Mixed state: depends on every event handled and on their order.
    pub acc: u64,
    /// Events handled.
    pub events: u64,
    last_sent: Vec<f64>,
    /// False once a send along some edge went back in time.
    pub monotone: bool,
}

impl LogicalProcess for PholdLp {
    type Msg = u64;

    fn handle(&mut self, now: SimTime, msg: u64, ctx: &mut LpCtx<'_, u64>) {
        self.events += 1;
        let mut h = self.acc ^ msg ^ now.seconds().to_bits();
        for i in 0..self.grain {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(u64::from(i));
        }
        self.acc = h;
        // the population is constant: every event has exactly one successor
        if self.rng.below(1000) < u64::from(self.remote_permille) {
            let k = self.rng.below(self.out.len() as u64) as usize;
            let at = now.seconds() + self.lookahead;
            self.monotone &= at >= self.last_sent[k];
            self.last_sent[k] = at;
            ctx.send(self.out[k], self.lookahead, h >> 8);
        } else {
            ctx.schedule_in(self.rng.exp(self.mean_delay), h >> 8);
        }
    }

    fn lookahead(&self) -> f64 {
        self.lookahead
    }

    fn trace_kind(&self, _: &u64) -> SpanKind {
        SpanKind::new("phold.hop")
    }
}

impl InitialEvents for PholdLp {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        for &(delay, payload) in &self.initial {
            ctx.schedule_in(delay, payload);
        }
    }
}

/// Everything a handler changes, for Time Warp's rollback.
pub struct PholdSaved {
    rng: Rng,
    acc: u64,
    events: u64,
    last_sent: Vec<f64>,
    monotone: bool,
}

impl SaveState for PholdLp {
    type Saved = PholdSaved;

    fn save(&self) -> PholdSaved {
        PholdSaved {
            rng: self.rng.clone(),
            acc: self.acc,
            events: self.events,
            last_sent: self.last_sent.clone(),
            monotone: self.monotone,
        }
    }

    fn restore(&mut self, s: PholdSaved) {
        self.rng = s.rng;
        self.acc = s.acc;
        self.events = s.events;
        self.last_sent = s.last_sent;
        self.monotone = s.monotone;
    }
}

/// Fingerprint of the final LP states.
pub fn fingerprint<'a>(lps: impl Iterator<Item = &'a PholdLp>) -> u64 {
    let mut fp = 0u64;
    for (i, lp) in lps.enumerate() {
        fp = fp
            .wrapping_add(outcome(i as u64, lp.acc))
            .wrapping_add(outcome((1 << 32) | i as u64, lp.events));
    }
    fp
}

/// Summarises final LP states.
pub fn summarise(p: &Params, lps: &[&PholdLp], counts: Vec<(&'static str, f64)>) -> Outcome {
    let events: u64 = lps.iter().map(|l| l.events).sum();
    let violation = if !lps.iter().all(|l| l.monotone) {
        Some("a per-edge send went back in time".to_string())
    } else if events == 0 {
        Some("no event was delivered".to_string())
    } else {
        None
    };
    Outcome {
        ops: events,
        events,
        fingerprint: fingerprint(lps.iter().copied()),
        counts,
        violation,
        report: format!(
            "{{\"workload\":\"phold_par\",\"lps\":{},\"t_end\":{},\"events\":{events}}}",
            p.lps, p.t_end
        ),
    }
}

/// Worker threads the study uses: one per core, at most four.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

/// The scheduler's counters. They depend on thread timing, so they are
/// read from the plain trials only: under the `TimedLp` shim they would
/// describe the shim.
fn ws_counts(ws: &product::WsSched, events: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("par.ws.steals", ws.steals as f64),
        ("par.ws.parks", ws.parks as f64),
        (
            "par.ws.bound_updates_per_event",
            ws.bound_updates as f64 / events.max(1) as f64,
        ),
    ]
}

/// Runs one trial of `phold_par`.
pub fn run(dir: &Path, mode: Mode) -> Trial {
    let origin = Instant::now();
    if mode == Mode::Traced {
        shim::install(origin);
    }
    let mut trial = shim::phase("trial", || one_trial(dir, mode, origin));
    if let Some(layers) = trial.layers.as_mut() {
        // phase spans come from the recorder, LP spans from the LPs
        let (phases, mut spans) = shim::finish(&ShimCounters::default());
        spans.append(&mut trial.spans);
        layers.run_s = phases.run_s;
        layers.spans_kept = spans.len() as u64;
        trial.spans = spans;
    }
    trial
}

fn one_trial(dir: &Path, mode: Mode, origin: Instant) -> Trial {
    let ((p, lps, edges), setup_s) = shim::phase("setup", || {
        timed_setup(|| {
            let p = load(dir).unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()));
            let (lps, edges) = (p.build(), p.edges());
            (p, lps, edges)
        })
    });
    let (t_end, workers) = (SimTime::new(p.t_end), workers());
    let start = Instant::now();
    let (mut layers, mut spans, mut stands_for) = (None, Vec::new(), 0.0);
    let outcome = match mode {
        Mode::Plain => {
            let out = shim::phase("run", || {
                product::par_worksteal(lps, &edges, t_end, workers)
            });
            let lps: Vec<&PholdLp> = out.lps.iter().collect();
            summarise(&p, &lps, ws_counts(&out.sched, out.events))
        }
        Mode::Observed => {
            let (out, seen) = product::par_worksteal_observed(lps, &edges, t_end, workers);
            let lps: Vec<&PholdLp> = out.lps.iter().collect();
            let mut o = summarise(&p, &lps, ws_counts(&out.sched, out.events));
            if seen != o.events {
                o.violation = Some(format!(
                    "telemetry saw {seen} events, the engine {}",
                    o.events
                ));
            }
            o
        }
        Mode::Traced => {
            let timed: Vec<TimedLp<PholdLp>> = lps
                .into_iter()
                .enumerate()
                .map(|(i, lp)| TimedLp::new(lp, origin, i as u32))
                .collect();
            let out = shim::phase("run", || {
                product::par_worksteal(timed, &edges, t_end, workers)
            });
            shim::phase("report", || {
                let calls: u64 = out.lps.iter().map(|lp| lp.calls).sum();
                let sampled: u64 = out.lps.iter().map(|lp| lp.sampled).sum();
                stands_for = calls as f64 / sampled.max(1) as f64;
                layers = Some(LayerTimes {
                    lp_s: out.lps.iter().map(TimedLp::handler_seconds).sum(),
                    ..LayerTimes::default()
                });
                for (i, lp) in out.lps.iter().enumerate() {
                    spans.extend(lp.spans.iter().map(|&(start_ns, end_ns)| Span {
                        name: "phold.hop",
                        start_ns,
                        end_ns,
                        parent: 2, // the `run` span: trial = 0, setup = 1
                        lane: i as u32 + 1,
                    }));
                }
                let lps: Vec<&PholdLp> = out.lps.iter().map(TimedLp::inner).collect();
                summarise(&p, &lps, Vec::new())
            })
        }
    };
    Trial {
        setup_s,
        wall_s: start.elapsed().as_secs_f64(),
        outcome,
        layers,
        spans,
        stands_for,
    }
}
