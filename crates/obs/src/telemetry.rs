//! Engine telemetry: live scheduler introspection with zero cost when off.
//!
//! The metrics [`Registry`] and the causal tracer cover
//! *model-level* observability, but the scheduler internals of the parallel
//! engines — null messages, barrier waits, rollbacks, GVT lag, steals,
//! parks, deque depths — are invisible at runtime. This module adds a third
//! hook family with the same shape as [`Tracer`](crate::Tracer):
//!
//! * [`Telemetry`] — the sink trait, with `const ENABLED` and empty
//!   `#[inline(always)]` defaults. Engines are generic over `Y: Telemetry`
//!   and guard every call site with `if Y::ENABLED`, so a run over
//!   [`NoopTelemetry`] monomorphizes to the exact uninstrumented engine.
//! * [`EngineTelemetry`] — the recording sink: named counters plus series
//!   sampled on an event-count / virtual-time cadence ([`TelemetryConfig`]).
//! * [`TelemetryReport`] — merged post-run view: per-track counters,
//!   high-water marks, and counter series exportable as Perfetto counter
//!   tracks ([`CounterTrack`]) or into a [`Registry`].
//! * [`ProgressReporter`] — a shared live stderr reporter (events/sec,
//!   virtual time vs horizon, ETA) that rides the sampling cadence.
//!
//! Telemetry only *observes*: sinks never feed back into scheduling, so a
//! telemetry-enabled run is bit-identical to a plain run by construction
//! (property-tested across all six engines in
//! `crates/parallel/tests/telemetry_properties.rs`).
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::registry::Registry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Scheduler-internal telemetry hooks, called by the engines.
///
/// All methods have empty inline defaults; implementors override what they
/// record. Engines must guard argument computation with `if Y::ENABLED` so
/// the disabled path stays free.
pub trait Telemetry {
    /// Whether this sink records anything. Engines skip hook argument
    /// computation entirely when this is `false`.
    const ENABLED: bool = true;

    /// Adds `by` to the counter `name` on lane `track` (an LP or worker id).
    #[inline(always)]
    fn inc(&mut self, _name: &'static str, _track: u32, _by: u64) {}

    /// Raises the high-water mark `name` on `track` to at least `v`.
    #[inline(always)]
    fn peak(&mut self, _name: &'static str, _track: u32, _v: u64) {}

    /// Records an instantaneous sample of `name` on `track` at virtual
    /// time `vt`. Engines call this for gauges (queue length, GVT lag,
    /// deque depth) when [`tick`](Telemetry::tick) says a sample is due.
    #[inline(always)]
    fn sample(&mut self, _name: &'static str, _track: u32, _vt: f64, _v: f64) {}

    /// Advances the per-event cadence clock; returns `true` when the sink
    /// wants instantaneous samples for this event (the sampling cadence
    /// fired). Engines call this once per delivered event with a
    /// *monotone* virtual time (Time Warp passes GVT, not the rollback-
    /// prone local clock).
    #[inline(always)]
    fn tick(&mut self, _vt: f64) -> bool {
        false
    }
}

/// The disabled sink: `ENABLED = false`, every hook a no-op. An engine
/// instantiated with this monomorphizes to the uninstrumented engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTelemetry;

impl Telemetry for NoopTelemetry {
    const ENABLED: bool = false;
}

// Compile-time guarantee that the no-op sink stays free.
const _: () = assert!(!NoopTelemetry::ENABLED);

/// Sampling cadence and live-reporting configuration for
/// [`EngineTelemetry`].
#[derive(Clone)]
pub struct TelemetryConfig {
    /// Sample every this many delivered events (per sink). Default 1024.
    pub every_events: u64,
    /// Also sample whenever virtual time advances by this much since the
    /// last sample. Default `f64::INFINITY` (event-count cadence only).
    pub every_vt: f64,
    /// Optional shared live progress reporter, fed on each sample.
    pub progress: Option<Arc<ProgressReporter>>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            every_events: 1024,
            every_vt: f64::INFINITY,
            progress: None,
        }
    }
}

impl TelemetryConfig {
    /// Default cadence: one sample per 1024 delivered events.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the event-count cadence (clamped to at least 1).
    pub fn every_events(mut self, n: u64) -> Self {
        self.every_events = n.max(1);
        self
    }

    /// Sets the virtual-time cadence.
    pub fn every_vt(mut self, dt: f64) -> Self {
        self.every_vt = dt;
        self
    }

    /// Attaches a shared live progress reporter.
    pub fn with_progress(mut self, progress: Arc<ProgressReporter>) -> Self {
        self.progress = Some(progress);
        self
    }
}

/// The recording [`Telemetry`] sink: one per LP (or worker), merged into a
/// [`TelemetryReport`] after the run.
///
/// Counters are cumulative; on each cadence firing every counter's current
/// value is appended to a same-named series, so counter *tracks* show rate
/// over virtual time in Perfetto. Series timestamps are clamped monotone
/// per `(name, track)` lane.
pub struct EngineTelemetry {
    cfg: TelemetryConfig,
    /// Default lane for the auto-recorded `"events"` counter.
    track: u32,
    counters: BTreeMap<(&'static str, u32), u64>,
    peaks: BTreeMap<(&'static str, u32), u64>,
    series: BTreeMap<(&'static str, u32), Vec<(f64, f64)>>,
    events_since: u64,
    total_events: u64,
    last_sample_vt: f64,
    last_vt: f64,
}

impl EngineTelemetry {
    /// Creates a sink whose auto-counted events land on lane `track`.
    pub fn for_track(cfg: TelemetryConfig, track: u32) -> Self {
        EngineTelemetry {
            cfg,
            track,
            counters: BTreeMap::new(),
            peaks: BTreeMap::new(),
            series: BTreeMap::new(),
            events_since: 0,
            total_events: 0,
            last_sample_vt: 0.0,
            last_vt: 0.0,
        }
    }

    /// Creates a sink on lane 0 with the given cadence.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Self::for_track(cfg, 0)
    }

    /// Events ticked through this sink so far.
    pub fn events(&self) -> u64 {
        self.total_events
    }

    fn push_point(&mut self, name: &'static str, track: u32, vt: f64, v: f64) {
        let lane = self.series.entry((name, track)).or_default();
        // Clamp timestamps monotone per lane; engines feed monotone virtual
        // times, this guards float noise and makes the invariant structural.
        let t = match lane.last() {
            Some(&(t0, _)) => vt.max(t0),
            None => vt,
        };
        lane.push((t, v));
    }

    /// Appends every counter's cumulative value (plus the implicit
    /// `"events"` counter) to its series lane at `vt`.
    fn flush_counters(&mut self, vt: f64) {
        let snap: Vec<((&'static str, u32), u64)> =
            self.counters.iter().map(|(&k, &v)| (k, v)).collect();
        for ((name, track), v) in snap {
            self.push_point(name, track, vt, v as f64);
        }
        let (events, track) = (self.total_events, self.track);
        self.push_point("events", track, vt, events as f64);
    }

    /// Drains this sink into a single-sink report (final counter flush at
    /// the last seen virtual time included).
    pub fn finish(mut self) -> TelemetryReport {
        if self.total_events > 0 {
            let vt = self.last_vt;
            self.flush_counters(vt);
            // Feed the tail to the live reporter: events since the last
            // cadence firing (possibly all of them, on a short run) would
            // otherwise be missing from the final progress line.
            if let Some(p) = &self.cfg.progress {
                p.observe(vt, self.events_since);
            }
        }
        TelemetryReport {
            counters: self.counters,
            peaks: self.peaks,
            series: self.series,
            events: self.total_events,
        }
    }
}

impl Telemetry for EngineTelemetry {
    #[inline]
    fn inc(&mut self, name: &'static str, track: u32, by: u64) {
        *self.counters.entry((name, track)).or_insert(0) += by;
    }

    #[inline]
    fn peak(&mut self, name: &'static str, track: u32, v: u64) {
        let slot = self.peaks.entry((name, track)).or_insert(0);
        if v > *slot {
            *slot = v;
        }
    }

    #[inline]
    fn sample(&mut self, name: &'static str, track: u32, vt: f64, v: f64) {
        self.push_point(name, track, vt, v);
    }

    fn tick(&mut self, vt: f64) -> bool {
        self.events_since += 1;
        self.total_events += 1;
        self.last_vt = vt;
        let due = self.events_since >= self.cfg.every_events
            || (vt - self.last_sample_vt) >= self.cfg.every_vt;
        if due {
            let delta = self.events_since;
            self.events_since = 0;
            self.last_sample_vt = vt;
            self.flush_counters(vt);
            if let Some(p) = &self.cfg.progress {
                p.observe(vt, delta);
            }
        }
        due
    }
}

/// One Perfetto counter track: a named per-lane series of `(virtual time,
/// value)` points, rendered by `lsds-trace` as `"ph":"C"` events alongside
/// the span tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterTrack {
    /// Counter name (e.g. `"tw.gvt_lag"`).
    pub name: String,
    /// Lane (LP or worker id) — becomes the `tid` in the Chrome trace.
    pub track: u32,
    /// `(virtual time seconds, value)`, timestamps monotone.
    pub points: Vec<(f64, f64)>,
}

/// Merged post-run telemetry: counters, high-water marks, and sampled
/// series across every sink an engine ran.
#[derive(Debug, Default)]
pub struct TelemetryReport {
    counters: BTreeMap<(&'static str, u32), u64>,
    peaks: BTreeMap<(&'static str, u32), u64>,
    series: BTreeMap<(&'static str, u32), Vec<(f64, f64)>>,
    events: u64,
}

impl TelemetryReport {
    /// Merges per-LP/per-worker sinks into one report: counters and event
    /// totals add, peaks take the max, series concatenate per lane (each
    /// lane belongs to exactly one sink, so order is preserved).
    pub fn merge(sinks: Vec<EngineTelemetry>) -> TelemetryReport {
        let mut out = TelemetryReport::default();
        for sink in sinks {
            let part = sink.finish();
            out.events += part.events;
            for ((name, track), v) in part.counters {
                *out.counters.entry((name, track)).or_insert(0) += v;
            }
            for ((name, track), v) in part.peaks {
                let slot = out.peaks.entry((name, track)).or_insert(0);
                if v > *slot {
                    *slot = v;
                }
            }
            for (key, mut pts) in part.series {
                out.series.entry(key).or_default().append(&mut pts);
            }
        }
        out
    }

    /// Total events ticked across all merged sinks.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Sum of counter `name` across all lanes.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Counter `name` on a specific lane.
    pub fn counter_on(&self, name: &str, track: u32) -> u64 {
        self.counters
            .iter()
            .find(|((n, t), _)| *n == name && *t == track)
            .map(|(_, &v)| v)
            .unwrap_or(0)
    }

    /// Maximum of high-water mark `name` across all lanes.
    pub fn peak(&self, name: &str) -> u64 {
        self.peaks
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, &v)| v)
            .max()
            .unwrap_or(0)
    }

    /// Sampled series for `name` on `track`, if any.
    pub fn series_on(&self, name: &str, track: u32) -> Option<&[(f64, f64)]> {
        self.series
            .iter()
            .find(|((n, t), _)| *n == name && *t == track)
            .map(|(_, pts)| pts.as_slice())
    }

    /// Iterates all `(name, track)` series lanes.
    pub fn series_lanes(&self) -> impl Iterator<Item = (&'static str, u32, &[(f64, f64)])> {
        self.series
            .iter()
            .map(|(&(name, track), pts)| (name, track, pts.as_slice()))
    }

    /// All sampled lanes as Perfetto counter tracks, name-then-lane sorted.
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        self.series
            .iter()
            .map(|(&(name, track), pts)| CounterTrack {
                name: name.to_string(),
                track,
                points: pts.clone(),
            })
            .collect()
    }

    /// Exports counters (aggregate and per-lane), peaks (as gauges), and
    /// series into a [`Registry`] under `prefix` (e.g. `"telemetry"`).
    ///
    /// Aggregate counters land at `{prefix}.{name}`, per-lane values at
    /// `{prefix}.{name}.{track}` (only when more than one lane recorded
    /// the name, to keep single-LP runs compact).
    pub fn export_metrics(&self, reg: &mut Registry, prefix: &str) {
        let mut lanes_per_name: BTreeMap<&'static str, u32> = BTreeMap::new();
        for &(name, _) in self.counters.keys() {
            *lanes_per_name.entry(name).or_insert(0) += 1;
        }
        for (&(name, track), &v) in &self.counters {
            reg.inc(&format!("{prefix}.{name}"), v);
            if lanes_per_name[name] > 1 {
                reg.inc(&format!("{prefix}.{name}.{track}"), v);
            }
        }
        for (&(name, track), &v) in &self.peaks {
            reg.set_gauge(&format!("{prefix}.{name}.{track}"), v as f64);
        }
        for (&(name, track), pts) in &self.series {
            let key = format!("{prefix}.{name}.{track}");
            for &(t, v) in pts {
                reg.series_update(&key, t, v);
            }
        }
    }
}

/// Shared live progress reporter for long runs: prints `virtual time vs
/// horizon, events, events/sec, ETA` to stderr, throttled by wall time.
///
/// Shareable across engine threads via `Arc`; all state is atomic. The
/// reporter only *reads* run progress — it never feeds back into
/// scheduling, so attaching one cannot perturb a run.
pub struct ProgressReporter {
    t_end: f64,
    start: Instant,
    events: AtomicU64,
    /// Max virtual time seen, as f64 bits (monotone, non-negative, so the
    /// integer compare in the CAS loop matches the float order).
    vt_bits: AtomicU64,
    /// Milliseconds since `start` of the last line printed.
    last_print_ms: AtomicU64,
    interval_ms: u64,
    quiet: bool,
}

impl ProgressReporter {
    /// Reporter for a run to virtual-time horizon `t_end`, printing at
    /// most every 500 ms of wall time.
    pub fn new(t_end: f64) -> Self {
        Self::with_interval(t_end, 500)
    }

    /// Reporter with an explicit minimum wall interval between lines.
    pub fn with_interval(t_end: f64, interval_ms: u64) -> Self {
        ProgressReporter {
            t_end,
            #[expect(
                clippy::disallowed_methods,
                reason = "progress reporting measures host elapsed time for events/sec and ETA; it never feeds back into simulated time"
            )]
            start: Instant::now(),
            events: AtomicU64::new(0),
            vt_bits: AtomicU64::new(0),
            last_print_ms: AtomicU64::new(0),
            interval_ms,
            quiet: false,
        }
    }

    /// Reporter that accumulates but never prints (for tests).
    pub fn quiet(t_end: f64) -> Self {
        let mut p = Self::with_interval(t_end, u64::MAX);
        p.quiet = true;
        p
    }

    /// Records `delta` more events at virtual time `vt`, printing a line
    /// if the wall-clock throttle allows.
    pub fn observe(&self, vt: f64, delta: u64) {
        self.events.fetch_add(delta, Ordering::Relaxed);
        if vt > 0.0 {
            let bits = vt.to_bits();
            let mut cur = self.vt_bits.load(Ordering::Relaxed);
            while bits > cur {
                match self.vt_bits.compare_exchange_weak(
                    cur,
                    bits,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        if self.quiet {
            return;
        }
        let now_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_print_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(last) < self.interval_ms {
            return;
        }
        if self
            .last_print_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            eprintln!("{}", self.line());
        }
    }

    /// Events recorded so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Max virtual time recorded so far.
    pub fn vt(&self) -> f64 {
        f64::from_bits(self.vt_bits.load(Ordering::Relaxed))
    }

    /// Formats the current progress line.
    pub fn line(&self) -> String {
        let vt = self.vt();
        let events = self.events();
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            events as f64 / elapsed
        } else {
            0.0
        };
        let pct = if self.t_end > 0.0 {
            (vt / self.t_end * 100.0).min(100.0)
        } else {
            0.0
        };
        let eta = if vt > 0.0 && vt < self.t_end {
            let remaining = (self.t_end - vt) / vt * elapsed;
            format!("{remaining:.0}s")
        } else {
            "-".to_string()
        };
        format!(
            "[lsds] vt {vt:.3}/{:.3} ({pct:.0}%) | {events} events | {rate:.0} ev/s | eta {eta}",
            self.t_end
        )
    }

    /// Prints the final summary line (unconditionally, unless quiet).
    pub fn finish(&self) {
        if !self.quiet {
            eprintln!("{} | done", self.line());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_telemetry_is_a_unit() {
        assert_eq!(std::mem::size_of::<NoopTelemetry>(), 0);
        let mut t = NoopTelemetry;
        t.inc("x", 0, 1);
        t.peak("x", 0, 9);
        t.sample("x", 0, 1.0, 2.0);
        assert!(!t.tick(1.0));
    }

    #[test]
    fn counters_flush_on_event_cadence() {
        let mut tel = EngineTelemetry::for_track(TelemetryConfig::new().every_events(4), 7);
        for i in 0..8 {
            tel.inc("nulls", 7, 1);
            let due = tel.tick(i as f64);
            assert_eq!(due, i == 3 || i == 7, "cadence at event {i}");
        }
        let report = tel.finish();
        assert_eq!(report.counter("nulls"), 8);
        assert_eq!(report.counter_on("nulls", 7), 8);
        assert_eq!(report.events(), 8);
        // Two cadence flushes + one final flush.
        let pts = report.series_on("nulls", 7).unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (3.0, 4.0));
        assert_eq!(pts[1], (7.0, 8.0));
        // The implicit events counter rides along.
        let ev = report.series_on("events", 7).unwrap();
        assert_eq!(ev[0], (3.0, 4.0));
    }

    #[test]
    fn vt_cadence_fires_on_time_advance() {
        let mut tel =
            EngineTelemetry::new(TelemetryConfig::new().every_events(u64::MAX).every_vt(10.0));
        assert!(!tel.tick(1.0));
        assert!(!tel.tick(9.0));
        assert!(tel.tick(10.0));
        assert!(!tel.tick(11.0));
        assert!(tel.tick(20.5));
    }

    #[test]
    fn series_timestamps_clamped_monotone() {
        let mut tel = EngineTelemetry::new(TelemetryConfig::new());
        tel.sample("lag", 0, 5.0, 1.0);
        tel.sample("lag", 0, 3.0, 2.0); // would go backwards
        tel.sample("lag", 0, 7.0, 3.0);
        let report = tel.finish();
        let pts = report.series_on("lag", 0).unwrap();
        assert_eq!(pts, &[(5.0, 1.0), (5.0, 2.0), (7.0, 3.0)]);
    }

    #[test]
    fn peaks_take_max() {
        let mut tel = EngineTelemetry::new(TelemetryConfig::new());
        tel.peak("hw", 0, 5);
        tel.peak("hw", 0, 3);
        tel.peak("hw", 0, 9);
        assert_eq!(tel.finish().peak("hw"), 9);
    }

    #[test]
    fn merge_sums_counters_and_maxes_peaks() {
        let mut a = EngineTelemetry::for_track(TelemetryConfig::new(), 0);
        let mut b = EngineTelemetry::for_track(TelemetryConfig::new(), 1);
        a.inc("steals", 0, 3);
        b.inc("steals", 1, 4);
        a.peak("depth", 0, 10);
        b.peak("depth", 1, 6);
        a.tick(1.0);
        b.tick(2.0);
        let report = TelemetryReport::merge(vec![a, b]);
        assert_eq!(report.counter("steals"), 7);
        assert_eq!(report.counter_on("steals", 0), 3);
        assert_eq!(report.counter_on("steals", 1), 4);
        assert_eq!(report.peak("depth"), 10);
        assert_eq!(report.events(), 2);
    }

    #[test]
    fn counter_tracks_carry_lanes_and_points() {
        let mut tel = EngineTelemetry::for_track(TelemetryConfig::new().every_events(1), 2);
        tel.inc("nulls", 2, 5);
        tel.tick(1.5);
        let tracks = TelemetryReport::merge(vec![tel]).counter_tracks();
        let nulls = tracks.iter().find(|t| t.name == "nulls").unwrap();
        assert_eq!(nulls.track, 2);
        assert_eq!(nulls.points[0], (1.5, 5.0));
        assert!(tracks.iter().any(|t| t.name == "events"));
    }

    #[test]
    fn export_metrics_lands_in_registry() {
        let mut a = EngineTelemetry::for_track(TelemetryConfig::new(), 0);
        let mut b = EngineTelemetry::for_track(TelemetryConfig::new(), 1);
        a.inc("rollbacks", 0, 2);
        b.inc("rollbacks", 1, 3);
        a.peak("queue_hw", 0, 42);
        a.sample("gvt_lag", 0, 1.0, 0.5);
        let report = TelemetryReport::merge(vec![a, b]);
        let mut reg = Registry::new();
        report.export_metrics(&mut reg, "tel");
        assert_eq!(reg.counter("tel.rollbacks"), 5);
        assert_eq!(reg.counter("tel.rollbacks.0"), 2);
        assert_eq!(reg.counter("tel.rollbacks.1"), 3);
        assert_eq!(reg.gauge("tel.queue_hw.0"), Some(42.0));
        assert!(reg.series("tel.gvt_lag.0").is_some());
    }

    #[test]
    fn progress_reporter_accumulates() {
        let p = ProgressReporter::quiet(40.0);
        p.observe(10.0, 100);
        p.observe(5.0, 50); // vt is monotone max
        assert_eq!(p.events(), 150);
        assert_eq!(p.vt(), 10.0);
        let line = p.line();
        assert!(line.contains("vt 10.000/40.000"), "{line}");
        assert!(line.contains("150 events"), "{line}");
        p.finish(); // quiet: no output, no panic
    }

    #[test]
    fn progress_line_shows_eta_dash_when_unknown() {
        let p = ProgressReporter::quiet(10.0);
        assert!(p.line().contains("eta -"));
    }
}
