//! Synthetic workload generators that emit traces.
//!
//! The bridge between the taxonomy's two input modalities: a generator
//! *produces* a trace which can be saved, inspected, and later *replayed*
//! as monitored data through the trace-driven engine — so the same
//! workload can exercise both input paths.

use crate::record::{MonitorRecord, Trace};
use lsds_stats::{Dist, SimRng};

/// A Poisson-process generator of per-node metric events.
pub struct WorkloadGenerator {
    /// Reporting node names; events round-robin over them by sampling.
    pub nodes: Vec<String>,
    /// Metric name to emit.
    pub metric: String,
    /// Mean inter-event time.
    pub mean_interarrival: f64,
    /// Value distribution.
    pub value: Dist,
    rng: SimRng,
}

impl WorkloadGenerator {
    /// Creates a generator.
    pub fn new(
        nodes: Vec<String>,
        metric: impl Into<String>,
        mean_interarrival: f64,
        value: Dist,
        rng: SimRng,
    ) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        assert!(mean_interarrival > 0.0, "bad inter-arrival");
        WorkloadGenerator {
            nodes,
            metric: metric.into(),
            mean_interarrival,
            value,
            rng,
        }
    }

    /// Generates a trace covering `[0, horizon)`.
    pub fn generate(&mut self, horizon: f64) -> Trace {
        let mut t = 0.0;
        let mut out = Trace::new();
        let ia = Dist::exp_mean(self.mean_interarrival);
        loop {
            t += ia.sample(&mut self.rng);
            if t >= horizon {
                break;
            }
            let node = self.nodes[self.rng.index(self.nodes.len())].clone();
            let value = self.value.sample(&mut self.rng);
            out.push(MonitorRecord::new(t, node, self.metric.clone(), value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64) -> WorkloadGenerator {
        WorkloadGenerator::new(
            vec!["n0".into(), "n1".into(), "n2".into()],
            "job_arrival",
            0.5,
            Dist::exp_mean(100.0),
            SimRng::new(seed),
        )
    }

    #[test]
    fn generates_expected_count() {
        let trace = gen(1).generate(1000.0);
        // rate 2/s over 1000s → ~2000 events
        assert!((1800..2200).contains(&trace.len()), "{}", trace.len());
    }

    #[test]
    fn all_records_in_horizon_and_ordered() {
        let trace = gen(2).generate(500.0);
        let recs = trace.records();
        assert!(recs.iter().all(|r| r.time < 500.0));
        assert!(recs.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(recs.iter().all(|r| &*r.metric == "job_arrival"));
    }

    #[test]
    fn covers_all_nodes() {
        let trace = gen(3).generate(200.0);
        for n in ["n0", "n1", "n2"] {
            assert!(trace.records().iter().any(|r| &*r.node == n));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        assert_eq!(gen(4).generate(100.0), gen(4).generate(100.0));
        assert_ne!(gen(4).generate(100.0), gen(5).generate(100.0));
    }
}
