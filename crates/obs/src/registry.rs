//! Metrics registry: named counters, gauges, time-weighted series, and
//! value summaries, with deterministic (sorted) snapshot ordering.

use std::collections::BTreeMap;

use lsds_stats::{Summary, TimeWeighted};

/// Default maximum number of retained sample points per series. When the
/// cap is reached the series halves its retained points and doubles its
/// sampling stride, so memory stays bounded on year-long runs while the
/// time-weighted aggregates remain exact.
const SERIES_POINT_CAP: usize = 512;

/// A piecewise-constant signal tracked in simulated time.
///
/// Wraps [`TimeWeighted`] (exact average/max over the full run) and keeps a
/// bounded, stride-thinned sample of `(t, value)` step points for export.
#[derive(Debug, Clone)]
pub struct Series {
    tw: TimeWeighted,
    points: Vec<(f64, f64)>,
    stride: u64,
    seen: u64,
}

impl Series {
    fn new(t0: f64, v0: f64) -> Self {
        Series {
            tw: TimeWeighted::new(t0, v0),
            points: vec![(t0, v0)],
            stride: 1,
            seen: 0,
        }
    }

    fn update(&mut self, t: f64, v: f64) {
        self.tw.update(t, v);
        self.seen += 1;
        if !self.seen.is_multiple_of(self.stride) {
            return;
        }
        if self.points.len() >= SERIES_POINT_CAP {
            let mut keep = Vec::with_capacity(SERIES_POINT_CAP / 2 + 1);
            keep.extend(self.points.iter().step_by(2).copied());
            self.points = keep;
            self.stride *= 2;
            if !self.seen.is_multiple_of(self.stride) {
                return;
            }
        }
        self.points.push((t, v));
    }

    /// Current value of the signal.
    pub fn value(&self) -> f64 {
        self.tw.value()
    }

    /// Maximum value observed.
    pub fn max(&self) -> f64 {
        self.tw.max()
    }

    /// Exact time-average over the tracked interval ending at `t_end`.
    pub fn average(&self, t_end: f64) -> f64 {
        self.tw.average(t_end)
    }

    /// Retained (possibly thinned) step points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

/// An exported series: aggregates plus retained step points.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Metric name.
    pub name: String,
    /// Last recorded value.
    pub value: f64,
    /// Maximum value observed.
    pub max: f64,
    /// Time-weighted average over the observation window.
    pub average: f64,
    /// Retained `(time, value)` step points.
    pub points: Vec<(f64, f64)>,
}

/// An exported value summary (count/mean/min/max of untimed observations).
#[derive(Debug, Clone, PartialEq)]
pub struct SummarySnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean of the observations.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median estimate (log-bucketed, ≈6% relative error).
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

/// A point-in-time export of a [`Registry`], ordered by metric name so the
/// rendered output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Simulated time the snapshot was taken at (series averages close here).
    pub at: f64,
    /// Counter values, by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, by name.
    pub gauges: Vec<(String, f64)>,
    /// Time-weighted series, by name.
    pub series: Vec<SeriesSnapshot>,
    /// Untimed value summaries, by name.
    pub summaries: Vec<SummarySnapshot>,
}

/// Named metrics for one simulation run.
///
/// Four metric families cover the monitoring needs of the workspace:
/// monotone event **counters**, last-value **gauges**, time-weighted
/// **series** (queue lengths, link utilization, site occupancy), and
/// untimed value **summaries** (transfer latencies, job makespans).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    series: BTreeMap<String, Series>,
    summaries: BTreeMap<String, Summary>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Current counter value (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters whose name starts with `prefix`, in name order.
    /// Handy for pulling one subsystem's counter block out of a merged
    /// registry (e.g. every `net.` counter after `export_metrics`).
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges whose name starts with `prefix`, in name order
    /// (parity with [`Registry::counters_with_prefix`]).
    pub fn gauges_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.gauges
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// All series whose name starts with `prefix`, in name order
    /// (parity with [`Registry::counters_with_prefix`]).
    pub fn series_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a Series)> + 'a {
        self.series
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), v))
    }

    /// Sets the named gauge to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records that the named series changed to value `v` at time `t`.
    /// The first call creates the series starting at `(t, v)`.
    pub fn series_update(&mut self, name: &str, t: f64, v: f64) {
        if let Some(s) = self.series.get_mut(name) {
            s.update(t, v);
        } else {
            self.series.insert(name.to_string(), Series::new(t, v));
        }
    }

    /// Adds `delta` to the named series at time `t` (queue-length style).
    pub fn series_add(&mut self, name: &str, t: f64, delta: f64) {
        if let Some(s) = self.series.get_mut(name) {
            let v = s.value() + delta;
            s.update(t, v);
        } else {
            self.series.insert(name.to_string(), Series::new(t, delta));
        }
    }

    /// The named series, if it exists.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Adds one observation `x` to the named summary.
    pub fn observe(&mut self, name: &str, x: f64) {
        self.summaries.entry(name.to_string()).or_default().add(x);
    }

    /// The named summary, if any observations were recorded.
    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.summaries.get(name)
    }

    /// Absorbs another registry: counters add, gauges and series overwrite
    /// on name collision, summaries merge.
    pub fn merge(&mut self, other: Registry) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            self.gauges.insert(k, v);
        }
        for (k, v) in other.series {
            self.series.insert(k, v);
        }
        for (k, v) in other.summaries {
            self.summaries.entry(k).or_default().merge(&v);
        }
    }

    /// Exports every metric, closing series averages at `t_end`.
    pub fn snapshot(&self, t_end: f64) -> Snapshot {
        Snapshot {
            at: t_end,
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            series: self
                .series
                .iter()
                .map(|(k, s)| SeriesSnapshot {
                    name: k.clone(),
                    value: s.value(),
                    max: s.max(),
                    average: s.average(t_end),
                    points: s.points.clone(),
                })
                .collect(),
            summaries: self
                .summaries
                .iter()
                .map(|(k, s)| {
                    // Export only finite values so the snapshot round-trips
                    // through JSON, which has no infinity/NaN literal. The
                    // ±inf min/max sentinels of an empty summary (reachable
                    // via [`Registry::merge`], which materializes the entry
                    // before the inner merge no-ops on zero counts), a
                    // NaN-poisoned mean, or percentiles of a stream holding
                    // non-finite observations all become 0.0, the same
                    // convention PR 6 set for the empty min/max.
                    let fin = |x: f64| if x.is_finite() { x } else { 0.0 };
                    SummarySnapshot {
                        name: k.clone(),
                        count: s.count(),
                        mean: fin(s.mean()),
                        min: if s.count() == 0 { 0.0 } else { fin(s.min()) },
                        max: if s.count() == 0 { 0.0 } else { fin(s.max()) },
                        p50: fin(s.p50()),
                        p95: fin(s.p95()),
                        p99: fin(s.p99()),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut reg = Registry::new();
        reg.inc("events", 3);
        reg.inc("events", 2);
        reg.set_gauge("clock", 1.5);
        reg.set_gauge("clock", 2.5);
        assert_eq!(reg.counter("events"), 5);
        assert_eq!(reg.counter("missing"), 0);
        assert_eq!(reg.gauge("clock"), Some(2.5));
    }

    #[test]
    fn counters_with_prefix_selects_one_block() {
        let mut reg = Registry::new();
        reg.inc("net.reshare_count", 4);
        reg.inc("net.route_cache_hits", 9);
        reg.inc("grid.jobs_done", 2);
        reg.inc("nets_other", 1); // shares a string prefix, not the block
        let net: Vec<(&str, u64)> = reg.counters_with_prefix("net.").collect();
        assert_eq!(
            net,
            vec![("net.reshare_count", 4), ("net.route_cache_hits", 9)]
        );
        assert_eq!(reg.counters_with_prefix("none.").count(), 0);
    }

    #[test]
    fn gauges_with_prefix_selects_one_block() {
        let mut reg = Registry::new();
        reg.set_gauge("engine.clock", 5.0);
        reg.set_gauge("engine.queue_high", 3.0);
        reg.set_gauge("net.load", 0.5);
        reg.set_gauge("engines_other", 1.0); // shares a string prefix only
        let eng: Vec<(&str, f64)> = reg.gauges_with_prefix("engine.").collect();
        assert_eq!(eng, vec![("engine.clock", 5.0), ("engine.queue_high", 3.0)]);
        assert_eq!(reg.gauges_with_prefix("none.").count(), 0);
    }

    #[test]
    fn series_with_prefix_selects_one_block() {
        let mut reg = Registry::new();
        reg.series_update("site.cpu", 0.0, 1.0);
        reg.series_update("site.queue", 0.0, 2.0);
        reg.series_update("net.util", 0.0, 0.5);
        reg.series_update("sites_other", 0.0, 9.0); // string prefix only
        let site: Vec<(&str, f64)> = reg
            .series_with_prefix("site.")
            .map(|(k, s)| (k, s.value()))
            .collect();
        assert_eq!(site, vec![("site.cpu", 1.0), ("site.queue", 2.0)]);
        assert_eq!(reg.series_with_prefix("none.").count(), 0);
    }

    #[test]
    fn snapshot_summaries_carry_percentiles() {
        let mut reg = Registry::new();
        for i in 1..=1000 {
            reg.observe("lat", i as f64);
        }
        let snap = reg.snapshot(1.0);
        let s = &snap.summaries[0];
        assert_eq!(s.count, 1000);
        assert!((s.p50 - 500.0).abs() / 500.0 < 0.07, "p50 {}", s.p50);
        assert!((s.p95 - 950.0).abs() / 950.0 < 0.07, "p95 {}", s.p95);
        assert!((s.p99 - 990.0).abs() / 990.0 < 0.07, "p99 {}", s.p99);
    }

    #[test]
    fn snapshot_of_empty_summary_is_finite() {
        // a summary entry that exists but holds zero observations (a
        // merge can materialize one) must not leak the ±inf min/max
        // sentinels into the snapshot — JSON would render them as null
        let mut via = Registry::new();
        via.summaries.insert("lat".into(), Summary::new());
        let s = &via.snapshot(0.0).summaries[0];
        assert_eq!(s.count, 0);
        for (label, v) in [
            ("mean", s.mean),
            ("min", s.min),
            ("max", s.max),
            ("p50", s.p50),
            ("p95", s.p95),
            ("p99", s.p99),
        ] {
            assert!(v.is_finite(), "{label} not finite on empty summary: {v}");
            assert_eq!(v, 0.0, "{label} must export 0.0 on empty summary");
        }
    }

    #[test]
    fn snapshot_of_single_sample_summary() {
        let mut reg = Registry::new();
        reg.observe("lat", 42.0);
        let s = &reg.snapshot(0.0).summaries[0];
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        // one sample: every percentile is that sample, exactly (the
        // log-bucket estimate clamps into [min, max])
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.p95, 42.0);
        assert_eq!(s.p99, 42.0);
    }

    #[test]
    fn snapshot_of_two_sample_summary() {
        let mut reg = Registry::new();
        reg.observe("lat", 10.0);
        reg.observe("lat", 30.0);
        let s = &reg.snapshot(0.0).summaries[0];
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 20.0);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 30.0);
        // percentiles stay inside the observed range and ordered
        assert!(s.p50 >= 10.0 && s.p50 <= 30.0, "p50 {}", s.p50);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "percentiles unordered");
        assert!(s.p99 <= 30.0);
        // the p50 rank (ceil(0.5·2) = 1st smallest) is the low sample
        assert!((s.p50 - 10.0).abs() / 10.0 < 0.07, "p50 {}", s.p50);
    }

    /// Regression (PR 7): a NaN-poisoned summary (mean NaN, min/max stuck
    /// at their ±inf sentinels) must still snapshot to all-finite fields —
    /// JSON has no NaN/infinity literal, so a snapshot with one would not
    /// parse. This test is where that property is held.
    #[test]
    fn snapshot_of_nan_poisoned_summary_is_finite() {
        let mut reg = Registry::new();
        reg.observe("bad", f64::NAN);
        reg.observe("bad", f64::NAN);
        let s = &reg.snapshot(0.0).summaries[0];
        assert_eq!(s.count, 2);
        for (name, v) in [
            ("mean", s.mean),
            ("min", s.min),
            ("max", s.max),
            ("p50", s.p50),
            ("p95", s.p95),
            ("p99", s.p99),
        ] {
            assert!(v.is_finite(), "{name} leaked non-finite: {v}");
        }
    }

    /// Regression (PR 7): an infinite observation must not leak ±inf into
    /// the exported min/max/mean/percentiles.
    #[test]
    fn snapshot_with_infinite_observation_is_finite() {
        let mut reg = Registry::new();
        reg.observe("mixed", 1.0);
        reg.observe("mixed", f64::INFINITY);
        let s = &reg.snapshot(0.0).summaries[0];
        assert_eq!(s.count, 2);
        for (name, v) in [
            ("mean", s.mean),
            ("min", s.min),
            ("max", s.max),
            ("p50", s.p50),
            ("p95", s.p95),
            ("p99", s.p99),
        ] {
            assert!(v.is_finite(), "{name} leaked non-finite: {v}");
        }
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 0.0, "inf max sanitized to the 0.0 convention");
    }

    #[test]
    fn series_aggregates_are_exact() {
        let mut reg = Registry::new();
        reg.series_update("q", 0.0, 0.0);
        reg.series_update("q", 2.0, 1.0);
        reg.series_update("q", 6.0, 3.0);
        let s = reg.series("q").unwrap();
        assert_eq!(s.value(), 3.0);
        assert_eq!(s.max(), 3.0);
        assert!((s.average(10.0) - (4.0 + 12.0) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn series_points_stay_bounded() {
        let mut reg = Registry::new();
        for i in 0..100_000u64 {
            reg.series_update("q", i as f64, (i % 7) as f64);
        }
        let s = reg.series("q").unwrap();
        assert!(s.points().len() <= SERIES_POINT_CAP + 1);
        // the exact average is untouched by point thinning
        let mean = (0..100_000u64).map(|i| (i % 7) as f64).sum::<f64>() / 100_000.0;
        assert!((s.average(100_000.0) - mean).abs() < 0.01);
    }

    #[test]
    fn merge_combines_families() {
        let mut a = Registry::new();
        a.inc("n", 1);
        a.observe("lat", 2.0);
        let mut b = Registry::new();
        b.inc("n", 2);
        b.observe("lat", 4.0);
        b.set_gauge("g", 9.0);
        a.merge(b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.summary("lat").unwrap().count(), 2);
        assert_eq!(a.gauge("g"), Some(9.0));
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let mut reg = Registry::new();
        reg.inc("z", 1);
        reg.inc("a", 1);
        let snap = reg.snapshot(1.0);
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
