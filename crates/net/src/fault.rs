//! Link-level fault primitives: deterministic, schedule-driven outages.
//!
//! The surveyed simulators earn their keep on *realistic* scenarios — the
//! MONARC 2 LHC study only discriminated link capacities because real
//! links saturate and fail, and OptorSim-class replication studies only
//! separate strategies once transfers can be disrupted. This module
//! provides the vocabulary: [`LinkFault`] events applied to a
//! [`crate::FlowNet`] through the owning model's event loop, so a faulty
//! run is driven by the same engine as a healthy one and same-seed runs
//! stay bit-identical.

use crate::topology::LinkId;
use lsds_stats::SimRng;

/// A state change of one directed link.
///
/// Faults are *events*, not configuration: the owner schedules them
/// through its engine (see `lsds-grid`'s `FaultSchedule`) and applies them
/// with [`crate::FlowNet::apply_fault`] when they are delivered, which
/// keeps fault-injected runs deterministic and reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFault {
    /// The link fails: flows crossing it are re-routed around it when an
    /// alternative route exists, aborted otherwise.
    Down(LinkId),
    /// The link recovers at full (or its current degraded) capacity.
    Up(LinkId),
    /// The link's usable bandwidth becomes `factor ×` its nominal
    /// capacity (`factor` in `(0, ∞)`; `1.0` restores nominal service).
    Degrade {
        /// The affected link.
        link: LinkId,
        /// Multiplier on the nominal bandwidth.
        factor: f64,
    },
}

impl LinkFault {
    /// The link this fault affects.
    pub fn link(&self) -> LinkId {
        match *self {
            LinkFault::Down(l) | LinkFault::Up(l) => l,
            LinkFault::Degrade { link, .. } => link,
        }
    }
}

/// Retry-with-exponential-backoff knobs for transfers on a faulty network.
/// Its one consumer is the grid's staging layer (`lsds-grid`'s
/// `GridModel::set_retry_policy`), which restarts a transfer that
/// [`crate::FlowNet`] aborted or could not route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Give up after this many retries of one transfer (the initial
    /// attempt is not counted).
    pub max_retries: u32,
    /// Backoff before the first retry, in seconds.
    pub base_backoff: f64,
    /// Multiplier applied per further retry (exponential backoff).
    pub backoff_factor: f64,
    /// Ceiling on any single backoff interval, in seconds.
    pub max_backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 16,
            base_backoff: 5.0,
            backoff_factor: 2.0,
            max_backoff: 600.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based): `base · factor^retry`,
    /// capped at [`RetryPolicy::max_backoff`].
    pub fn backoff(&self, retry: u32) -> f64 {
        let b = self.base_backoff * self.backoff_factor.powi(retry.min(64) as i32);
        b.min(self.max_backoff)
    }
}

/// Generates a seeded Poisson outage process per link: exponential
/// time-between-failures with mean `mtbf`, exponential repair times with
/// mean `mttr`, until `horizon`. Returns `(time, fault)` pairs ready to be
/// scheduled; down/up events per link strictly alternate.
pub fn poisson_link_outages(
    rng: &mut SimRng,
    links: &[LinkId],
    horizon: f64,
    mtbf: f64,
    mttr: f64,
) -> Vec<(f64, LinkFault)> {
    assert!(mtbf > 0.0 && mttr > 0.0, "bad outage process parameters");
    let mut out = Vec::new();
    for &l in links {
        let mut t = 0.0;
        loop {
            t += -mtbf * rng.next_open_f64().ln();
            if t >= horizon {
                break;
            }
            out.push((t, LinkFault::Down(l)));
            t += -mttr * rng.next_open_f64().ln();
            let up = t.min(horizon);
            out.push((up, LinkFault::Up(l)));
            if t >= horizon {
                break;
            }
        }
    }
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: 1.0,
            backoff_factor: 2.0,
            max_backoff: 10.0,
        };
        assert_eq!(p.backoff(0), 1.0);
        assert_eq!(p.backoff(1), 2.0);
        assert_eq!(p.backoff(3), 8.0);
        assert_eq!(p.backoff(4), 10.0, "capped");
        assert_eq!(p.backoff(60), 10.0, "still capped far out");
    }

    #[test]
    fn outage_process_alternates_and_is_deterministic() {
        let gen = |seed| {
            let mut rng = SimRng::new(seed);
            poisson_link_outages(&mut rng, &[LinkId(0), LinkId(1)], 1.0e4, 300.0, 60.0)
        };
        let a = gen(7);
        let b = gen(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "seeded outages reproduce");
            assert_eq!(x.1, y.1);
        }
        // per link: strict down/up alternation, non-decreasing times
        for link in [LinkId(0), LinkId(1)] {
            let evs: Vec<&LinkFault> = a
                .iter()
                .filter(|(_, f)| f.link() == link)
                .map(|(_, f)| f)
                .collect();
            for (i, f) in evs.iter().enumerate() {
                let down = matches!(f, LinkFault::Down(_));
                assert_eq!(down, i % 2 == 0, "alternation broken at {i}");
            }
        }
        let mut last = 0.0;
        for (t, _) in &a {
            assert!(*t >= last && *t < 1.0e4);
            last = *t;
        }
    }

    #[test]
    fn fault_link_accessor() {
        assert_eq!(LinkFault::Down(LinkId(3)).link(), LinkId(3));
        assert_eq!(
            LinkFault::Degrade {
                link: LinkId(1),
                factor: 0.5
            }
            .link(),
            LinkId(1)
        );
    }
}
