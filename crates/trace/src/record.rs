//! MonALISA-style monitoring records.

use lsds_core::{SimTime, TraceSource};
use std::sync::Arc;

/// One monitored observation: at `time`, `node` reported `metric = value`.
///
/// This mirrors the flat (timestamp, farm/node, parameter, value) tuples
/// the MonALISA monitoring system produces — the format the paper names as
/// MONARC 2's monitored-data input (§3). The names are shared: a trace
/// read by [`crate::read_trace`] holds one allocation per distinct name,
/// not one per record.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorRecord {
    /// Observation timestamp (simulated seconds).
    pub time: f64,
    /// Reporting node/site name.
    pub node: Arc<str>,
    /// Metric name (e.g. `"job_arrival"`, `"cpu_load"`, `"transfer_mb"`).
    pub metric: Arc<str>,
    /// Observed value.
    pub value: f64,
}

impl MonitorRecord {
    /// Creates a record.
    pub fn new(
        time: f64,
        node: impl Into<Arc<str>>,
        metric: impl Into<Arc<str>>,
        value: f64,
    ) -> Self {
        assert!(time.is_finite() && time >= 0.0, "bad timestamp");
        MonitorRecord {
            time,
            node: node.into(),
            metric: metric.into(),
            value,
        }
    }
}

/// An in-memory trace: a time-ordered sequence of records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<MonitorRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds from records, sorting them by time (stable, so equal-time
    /// records keep their original order).
    pub fn from_records(mut records: Vec<MonitorRecord>) -> Self {
        records.sort_by(|a, b| a.time.total_cmp(&b.time));
        Trace { records }
    }

    /// Appends a record; must not go back in time.
    pub fn push(&mut self, rec: MonitorRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                rec.time >= last.time,
                "trace must be appended in time order"
            );
        }
        self.records.push(rec);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in time order.
    pub fn records(&self) -> &[MonitorRecord] {
        &self.records
    }

    /// Records for one metric only.
    pub fn metric<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a MonitorRecord> + 'a {
        self.records.iter().filter(move |r| *r.metric == *name)
    }

    /// Converts into a [`TraceSource`] for the trace-driven engine.
    pub fn into_source(self) -> impl TraceSource<Record = MonitorRecord> {
        self.records.into_iter().map(|r| (SimTime::new(r.time), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_records_sorts() {
        let t = Trace::from_records(vec![
            MonitorRecord::new(2.0, "a", "m", 1.0),
            MonitorRecord::new(1.0, "b", "m", 2.0),
        ]);
        assert_eq!(t.records()[0].time, 1.0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn push_enforces_order() {
        let mut t = Trace::new();
        t.push(MonitorRecord::new(1.0, "a", "m", 0.0));
        t.push(MonitorRecord::new(1.0, "a", "m", 0.5));
        t.push(MonitorRecord::new(3.0, "a", "m", 1.0));
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_order_push_panics() {
        let mut t = Trace::new();
        t.push(MonitorRecord::new(2.0, "a", "m", 0.0));
        t.push(MonitorRecord::new(1.0, "a", "m", 0.0));
    }

    #[test]
    fn metric_filter() {
        let t = Trace::from_records(vec![
            MonitorRecord::new(1.0, "a", "x", 0.0),
            MonitorRecord::new(2.0, "a", "y", 0.0),
            MonitorRecord::new(3.0, "a", "x", 0.0),
        ]);
        assert_eq!(t.metric("x").count(), 2);
        assert_eq!(t.metric("z").count(), 0);
    }

    #[test]
    fn source_yields_in_order() {
        let t = Trace::from_records(vec![
            MonitorRecord::new(5.0, "a", "m", 0.0),
            MonitorRecord::new(1.0, "b", "m", 0.0),
        ]);
        let mut src = t.into_source();
        use lsds_core::engine::TraceSource as _;
        let (t1, r1) = src.next_record().unwrap();
        assert_eq!(t1, SimTime::new(1.0));
        assert_eq!(&*r1.node, "b");
    }
}
