//! lsds-lint: allow(wall-clock) reason="benchmark harness: wall-clock time is the quantity being measured"
//!
//! The parent side of a run: generates inputs, starts one child process
//! per trial (so every trial gets a fresh heap and its own `VmHWM`),
//! collects the children's readings and folds them into medians.

use crate::metrics::{self, EndToEnd, PerLayer, END_TO_END, PER_LAYER};
use crate::probes;
use crate::shim;
use crate::util;
use crate::workloads::{self, Mode, Size};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// At most this many plain + observed pairs per workload, whatever
/// `--seconds` says.
const MAX_PAIRS: usize = 12;

/// Plain + traced pairs of a per-layer pass. The traced trials give the
/// layer times (their median), the plain ones beside them the base of
/// `bench.shim_overhead_ratio`; they alternate so that a slow spell of the
/// host hits both. Three, not five: five pairs of `lhc_t0t1` with their
/// set-ups would not fit a 25-second run.
const LAYER_PAIRS: usize = 3;

/// Outside this band `bench.trace_attributed_ratio` says the attribution
/// is broken (a shim no longer sees a section, or counts one twice), not
/// merely imprecise: the pass fails. Inside it the ratio is the error bar
/// to read the self times with; README.md has the measured ranges.
const ATTRIBUTED_BAND: (f64, f64) = (0.5, 2.0);

/// Result fingerprints of the default seed at full size. A change that
/// moves one of these changed what a workload simulates, not how fast.
pub const PINNED: [(&str, u64); 5] = [
    ("lhc_t0t1", 0x3ec4_bf8c_3818_9503),
    ("net_scale_100k", 0xd3bf_74e7_658d_9956),
    ("flow_contention", 0x6649_1c3e_928e_eecb),
    ("queue_hold", 0xbf13_eddc_9dbe_c3d8),
    ("phold_par", 0x9f2b_f38c_4395_3451),
];

/// The seed the pinned fingerprints belong to.
pub const DEFAULT_SEED: u64 = 1;

/// Directory of the benchmark package: `out/` lives under it.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `out/` under the package directory.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// Input directory of one `(workload, seed, size)`.
pub fn input_dir(workload: &str, seed: u64, size: Size) -> PathBuf {
    let tag = match size {
        Size::Full => "",
        Size::Smoke => "-smoke",
    };
    out_dir()
        .join("inputs")
        .join(format!("{workload}-s{seed}{tag}"))
}

/// Writes the generated input files of a workload (always afresh: a stale
/// file from another generator version must never be measured).
pub fn write_inputs(workload: &str, seed: u64, size: Size) -> std::io::Result<PathBuf> {
    let dir = input_dir(workload, seed, size);
    workloads::write_files(&dir, workloads::generate(workload, seed, size))?;
    Ok(dir)
}

/// What one child reported.
#[derive(Debug, Clone, Default)]
pub struct TrialRecord {
    /// Seconds per setup.
    pub setup_s: f64,
    /// First event to finished report.
    pub wall_s: f64,
    /// Units of modelled work done.
    pub ops: f64,
    /// Events delivered.
    pub events: f64,
    /// Result fingerprint.
    pub fingerprint: u64,
    /// Peak resident memory of the child (`VmHWM − RssFile`), KiB.
    pub rss_kib: f64,
    /// Exact counts and layer times, by metric name.
    pub values: BTreeMap<String, f64>,
}

/// Peak resident memory of this process without its file-backed pages:
/// `VmHWM − RssFile`. The file-backed part is the benchmark binary's own
/// text, about 3 MiB whose resident size follows the page cache's
/// fault-around (it moved by ±5 % from run to run, which was ±8 % of the
/// whole `VmHWM` of the 4 MiB `phold_par` child); what is left is the
/// memory the simulation allocated, which repeats to within 1 %.
fn peak_rss_kib() -> u64 {
    let field = |name| util::proc_status_kib(name).unwrap_or(0);
    field("VmHWM").saturating_sub(field("RssFile"))
}

/// The child side: runs one trial and prints one `TRIAL` line.
pub fn child_trial(workload: &str, dir: &Path, mode: Mode) -> Result<(), String> {
    let trial = workloads::run(workload, dir, mode);
    if let Some(v) = &trial.outcome.violation {
        return Err(format!("{workload} ({}): {v}", mode.name()));
    }
    if mode == Mode::Traced {
        let text = shim::chrome_trace(&trial.spans, trial.stands_for);
        let path = out_dir().join(format!("trace_{workload}.json"));
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if mode == Mode::Plain {
        let path = out_dir().join(format!("report_{workload}.json"));
        std::fs::write(&path, &trial.outcome.report)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let mut line = format!(
        "TRIAL setup_s={} wall_s={} ops={} events={} fp={:016x} rss_kib={}",
        trial.setup_s,
        trial.wall_s,
        trial.outcome.ops,
        trial.outcome.events,
        trial.outcome.fingerprint,
        peak_rss_kib()
    );
    for (name, v) in &trial.outcome.counts {
        line.push_str(&format!(" {name}={v}"));
    }
    if let Some(l) = &trial.layers {
        for (name, v) in [
            ("core.queue.self_s", l.queue_s),
            ("core.engine.self_s", l.engine_s),
            ("core.handler.self_s", l.handler_core_s),
            ("net.handler.self_s", l.net_s),
            ("grid.handler.self_s", l.grid_s),
            ("par.lp.handler.self_s", l.lp_s),
            ("bench.trace_attributed_ratio", l.attributed_ratio),
            ("bench.trace_spans_kept", l.spans_kept as f64),
        ] {
            // the shims of a workload see only some layers
            if metrics::per_layer(name).is_some_and(|m| m.applies_to(workload)) {
                line.push_str(&format!(" {name}={v}"));
            }
        }
    }
    println!("{line}");
    Ok(())
}

/// The child side of the probe pass: one `name=value` line per probe of
/// `workload`.
pub fn child_probes(workload: &str) {
    for (name, v) in probes::for_workload(workload, &out_dir().join("inputs")) {
        println!("PROBE {name}={v}");
    }
}

/// Runs this executable again with `args`, returning its stdout. The child
/// is waited for (or killed, then waited for) before this returns.
fn run_child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting a child: {e}"))?;
    let started = Instant::now();
    // the children print a few kilobytes at most, so the pipe cannot fill
    // before they exit
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child {args:?} timed out"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("waiting for a child: {e}"));
            }
        }
    };
    let mut text = String::new();
    if let Some(mut out) = child.stdout.take() {
        use std::io::Read;
        out.read_to_string(&mut text)
            .map_err(|e| format!("reading a child's output: {e}"))?;
    }
    if !status.success() {
        return Err(format!("child {args:?} failed: {status}"));
    }
    Ok(text)
}

fn parse_trial(text: &str) -> Result<TrialRecord, String> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("TRIAL "))
        .ok_or("child printed no TRIAL line")?;
    let mut rec = TrialRecord::default();
    for token in line.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("bad token {token}"))?;
        if key == "fp" {
            rec.fingerprint = u64::from_str_radix(value, 16).map_err(|e| format!("bad fp: {e}"))?;
            continue;
        }
        let v: f64 = value
            .parse()
            .map_err(|e| format!("bad value in {token}: {e}"))?;
        match key {
            "setup_s" => rec.setup_s = v,
            "wall_s" => rec.wall_s = v,
            "ops" => rec.ops = v,
            "events" => rec.events = v,
            "rss_kib" => rec.rss_kib = v,
            _ => {
                rec.values.insert(key.to_string(), v);
            }
        }
    }
    if !(rec.wall_s > 0.0 && rec.ops > 0.0) {
        return Err("child reported no work".to_string());
    }
    Ok(rec)
}

/// Runs one trial in a child process.
pub fn spawn_trial(workload: &str, dir: &Path, mode: Mode) -> Result<TrialRecord, String> {
    let dir = dir.to_str().ok_or("input path is not UTF-8")?;
    parse_trial(&run_child(&["trial", workload, dir, mode.name()])?)
}

/// Runs the probes of `workload` in a child process.
pub fn spawn_probes(workload: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = run_child(&["probes", workload])?;
    let mut out = BTreeMap::new();
    for line in text.lines().filter_map(|l| l.strip_prefix("PROBE ")) {
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("bad probe line {line}"))?;
        out.insert(
            k.to_string(),
            v.parse::<f64>().map_err(|e| format!("{line}: {e}"))?,
        );
    }
    Ok(out)
}

/// Everything measured for one workload in one run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRun {
    /// Workload name.
    pub name: String,
    /// Plain trials.
    pub plain: Vec<TrialRecord>,
    /// Observed trials.
    pub observed: Vec<TrialRecord>,
    /// Traced trials (per-layer pass only).
    pub traced: Vec<TrialRecord>,
    /// Readings of this workload's probes (per-layer pass only).
    pub probes: BTreeMap<String, f64>,
    /// Children started.
    pub attempted: u32,
    /// What went wrong, one line per failure.
    pub failures: Vec<String>,
}

impl WorkloadRun {
    fn record(&mut self, mode: Mode, result: Result<TrialRecord, String>) {
        self.attempted += 1;
        match result {
            Ok(rec) => match mode {
                Mode::Plain => self.plain.push(rec),
                Mode::Observed => self.observed.push(rec),
                Mode::Traced => self.traced.push(rec),
            },
            Err(e) => self.failures.push(e),
        }
    }

    fn all_trials(&self) -> impl Iterator<Item = &TrialRecord> {
        self.plain.iter().chain(&self.observed).chain(&self.traced)
    }

    /// The fingerprint every trial agreed on, if they did.
    pub fn fingerprint(&self) -> Option<u64> {
        let mut fps = self.all_trials().map(|t| t.fingerprint);
        let first = fps.next()?;
        fps.all(|fp| fp == first).then_some(first)
    }

    /// Checks results: every mode must give one fingerprint, and at the
    /// default seed and full size it must be the pinned one; after a
    /// per-layer pass every metric of this workload must have a value,
    /// nothing may report a name the catalogue does not give this
    /// workload, exact counts must repeat from trial to trial, the guards
    /// must read 1 and the attribution must be in its band.
    pub fn check(&mut self, seed: u64, size: Size, per_layer: bool) {
        let name = self.name.clone();
        match self.fingerprint() {
            Some(fp) if seed == DEFAULT_SEED && size == Size::Full => {
                let pinned = PINNED.iter().find(|(n, _)| *n == name).map(|p| p.1);
                if pinned != Some(fp) {
                    self.failures.push(format!(
                        "{name}: fingerprint {fp:016x} is not the pinned {:016x}",
                        pinned.unwrap_or(0)
                    ));
                }
            }
            Some(_) => {}
            None if self.all_trials().next().is_some() => {
                let fps: Vec<String> = self
                    .all_trials()
                    .map(|t| format!("{:016x}", t.fingerprint))
                    .collect();
                self.failures.push(format!(
                    "{name}: run modes disagree on the result fingerprint: {fps:?}"
                ));
            }
            None => {}
        }
        if !per_layer {
            return;
        }
        let mut problems = Vec::new();
        let reported = self
            .all_trials()
            .flat_map(|t| t.values.keys())
            .chain(self.probes.keys());
        for key in reported {
            if !metrics::per_layer(key).is_some_and(|m| m.applies_to(&name)) {
                problems.push(format!(
                    "{name}: {key} was reported but is not a per-layer metric of this workload"
                ));
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.applies_to(&name)) {
            let Some(v) = self.layer_value(m) else {
                problems.push(format!("{name}: per-layer metric {} has no source", m.name));
                continue;
            };
            let mut counts = self.all_trials().filter_map(|t| t.values.get(m.name));
            if m.exact
                && counts
                    .next()
                    .is_some_and(|first| counts.any(|c| c != first))
            {
                problems.push(format!("{name}: count {} differs between trials", m.name));
            }
            if metrics::GUARDS.contains(&m.name) && v < 0.5 {
                problems.push(format!("{name}: guard {} is {v}, not 1", m.name));
            }
            let (lo, hi) = ATTRIBUTED_BAND;
            if m.name == "bench.trace_attributed_ratio" && !(lo..=hi).contains(&v) {
                problems.push(format!(
                    "{name}: the traced self times add up to {v:.2} of the run, outside [{lo}, {hi}]"
                ));
            }
        }
        problems.sort();
        problems.dedup();
        self.failures.append(&mut problems);
    }

    /// Trials or checks that failed.
    pub fn failed(&self) -> u32 {
        self.failures.len() as u32
    }

    /// The end-to-end metrics with their values trial by trial, in running
    /// order.
    pub fn end_to_end(&self) -> Vec<(&'static EndToEnd, Vec<f64>)> {
        let series = |name: &str| -> Vec<f64> {
            match name {
                "wall_s" => self.plain.iter().map(|t| t.wall_s).collect(),
                "ops_per_s" => self.plain.iter().map(|t| t.ops / t.wall_s).collect(),
                // the plain trials only: an observed engine also builds its
                // observers and records every initial insert, so its set-up
                // is another, slower population
                "setup_s" => self.plain.iter().map(|t| t.setup_s).collect(),
                "observed_wall_s" => self.observed.iter().map(|t| t.wall_s).collect(),
                "peak_rss_mib" => self.plain.iter().map(|t| t.rss_kib / 1024.0).collect(),
                other => unreachable!("end-to-end metric {other} has no series"),
            }
        };
        END_TO_END
            .iter()
            .map(|m| (m, series(m.name)))
            .filter(|(_, values)| !values.is_empty())
            .collect()
    }

    /// One per-layer metric of this workload: the median over the traced
    /// trials, for a name they do not report the median over the plain
    /// trials (scheduler counters that a shim would disturb), else the
    /// probe of that name. `None`: no source supplied it.
    fn layer_value(&self, m: &PerLayer) -> Option<f64> {
        let median_of = |trials: &[TrialRecord], f: &dyn Fn(&TrialRecord) -> Option<f64>| {
            let values: Vec<f64> = trials.iter().filter_map(f).collect();
            (!values.is_empty()).then(|| util::median(&values))
        };
        let wall = |t: &TrialRecord| Some(t.wall_s);
        match m.name {
            "core.events" => median_of(&self.traced, &|t| Some(t.events)),
            "core.events_per_s" => {
                Some(median_of(&self.traced, &|t| Some(t.events))? / median_of(&self.plain, &wall)?)
            }
            "bench.shim_overhead_ratio" => {
                Some(median_of(&self.traced, &wall)? / median_of(&self.plain, &wall)?)
            }
            name => {
                let reported = |t: &TrialRecord| t.values.get(name).copied();
                median_of(&self.traced, &reported)
                    .or_else(|| median_of(&self.plain, &reported))
                    .or_else(|| self.probes.get(name).copied())
            }
        }
    }

    /// The per-layer metrics this workload's pass measures, with their
    /// values (a metric no source supplied is left out; `check` has
    /// reported it).
    pub fn per_layer(&self) -> Vec<(&'static PerLayer, f64)> {
        PER_LAYER
            .iter()
            .filter(|m| m.applies_to(&self.name))
            .filter_map(|m| self.layer_value(m).map(|v| (m, v)))
            .collect()
    }
}

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workloads, in running order.
    pub workloads: Vec<String>,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured time (setups and trials) per workload.
    pub seconds: f64,
    /// Measure the end-to-end metrics (plain and observed trials).
    pub end_to_end: bool,
    /// Measure the per-layer metrics (traced trials and probes).
    pub per_layer: bool,
    /// Problem size.
    pub size: Size,
}

/// Result of a whole run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Per-workload measurements, in plan order.
    pub workloads: Vec<WorkloadRun>,
}

impl RunResult {
    /// No trial and no check failed.
    pub fn ok(&self) -> bool {
        self.workloads.iter().all(|w| w.failures.is_empty())
    }
}

/// Executes a plan. Trials are interleaved round-robin across workloads
/// (plain, then observed, workload after workload, round after round), so
/// a slow minute of the host hits every workload and both modes alike.
pub fn execute(plan: &Plan) -> Result<RunResult, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("creating out/: {e}"))?;
    let mut runs = Vec::new();
    let mut dirs = Vec::new();
    for w in &plan.workloads {
        let dir = write_inputs(w, plan.seed, plan.size)
            .map_err(|e| format!("writing inputs of {w}: {e}"))?;
        dirs.push(dir);
        runs.push(WorkloadRun {
            name: w.clone(),
            ..WorkloadRun::default()
        });
    }
    if plan.end_to_end {
        let mut measured = vec![0.0f64; runs.len()];
        for _round in 0..MAX_PAIRS {
            let mut any = false;
            for (i, run) in runs.iter_mut().enumerate() {
                // a failed trial is not repeated: it is counted
                if measured[i] >= plan.seconds || !run.failures.is_empty() {
                    continue;
                }
                any = true;
                for mode in [Mode::Plain, Mode::Observed] {
                    let rec = spawn_trial(&run.name, &dirs[i], mode);
                    if let Ok(r) = &rec {
                        // setup is measured time too (repeated until
                        // SETUP_MIN_SECONDS have passed), so a run lasts
                        // about `seconds` whatever the workload
                        measured[i] += r.wall_s + r.setup_s.max(workloads::SETUP_MIN_SECONDS);
                    }
                    run.record(mode, rec);
                }
            }
            if !any {
                break;
            }
        }
    }
    if plan.per_layer {
        for (i, run) in runs.iter_mut().enumerate() {
            for pair in 0..LAYER_PAIRS {
                // who goes first alternates, so neither mode always runs
                // in the state the other left the host in
                let mut modes = [Mode::Plain, Mode::Traced];
                if pair % 2 == 1 {
                    modes.reverse();
                }
                for mode in modes {
                    let rec = spawn_trial(&run.name, &dirs[i], mode);
                    run.record(mode, rec);
                }
            }
            run.attempted += 1;
            match spawn_probes(&run.name) {
                Ok(p) => run.probes = p,
                Err(e) => run.failures.push(e),
            }
        }
    }
    for run in &mut runs {
        run.check(plan.seed, plan.size, plan.per_layer);
    }
    Ok(RunResult { workloads: runs })
}
