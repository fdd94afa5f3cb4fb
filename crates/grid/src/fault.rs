//! Deterministic fault injection for grid scenarios.
//!
//! A [`FaultSchedule`] is a list of timed fault events — link outages and
//! degradations (delegating to [`lsds_net::LinkFault`]) plus site crashes
//! and recoveries — handed to a `GridModel` before the run. At `Init` the
//! model schedules every event through its own engine, so faults are
//! ordinary simulation events: a same-seed faulty run is bit-identical,
//! repeatable, and composable with every scheduler/replication policy.
//!
//! Schedules are built either *deterministically* (explicit
//! [`FaultSchedule::link_outage`]/[`FaultSchedule::site_outage`] calls —
//! the taxonomy's "deterministic" behavior class) or *probabilistically*
//! from a seeded outage process ([`FaultSchedule::poisson_link_outages`]),
//! which is still reproducible under its seed (the "probabilistic" class).

use crate::site::SiteId;
use lsds_net::{LinkFault, LinkId};
use lsds_stats::SimRng;

/// One fault, applied at a scheduled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A network link state change (down / up / degrade).
    Link(LinkFault),
    /// The site's CPU farm crashes: running and queued jobs are lost and
    /// re-queued by the grid; the site stops accepting placements. Its
    /// disk, tape, and database survive (storage outlives compute — the
    /// common regional-center failure mode).
    SiteCrash(SiteId),
    /// The site accepts placements again.
    SiteRecover(SiteId),
}

/// A [`FaultKind`] with its injection time (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A timed schedule of fault events for one run.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (no faults — the failure-free baseline).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds one event. Panics on a bad time, or on a degrade factor that
    /// is not finite and positive (the network would reject it mid-run).
    pub fn push(&mut self, at: f64, kind: FaultKind) -> &mut Self {
        assert!(at >= 0.0 && at.is_finite(), "bad fault time");
        if let FaultKind::Link(LinkFault::Degrade { factor, .. }) = kind {
            assert!(factor.is_finite() && factor > 0.0, "bad degrade factor");
        }
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Link goes down at `at` and comes back `duration` seconds later.
    pub fn link_outage(&mut self, link: LinkId, at: f64, duration: f64) -> &mut Self {
        assert!(duration > 0.0, "bad outage duration");
        self.push(at, FaultKind::Link(LinkFault::Down(link)));
        self.push(at + duration, FaultKind::Link(LinkFault::Up(link)));
        self
    }

    /// Link runs at `factor ×` nominal bandwidth from `at` for `duration`
    /// seconds, then returns to nominal.
    pub fn degrade(&mut self, link: LinkId, at: f64, duration: f64, factor: f64) -> &mut Self {
        assert!(duration > 0.0, "bad degradation duration");
        self.push(at, FaultKind::Link(LinkFault::Degrade { link, factor }));
        self.push(
            at + duration,
            FaultKind::Link(LinkFault::Degrade { link, factor: 1.0 }),
        );
        self
    }

    /// Site crashes at `at` and recovers `duration` seconds later.
    pub fn site_outage(&mut self, site: SiteId, at: f64, duration: f64) -> &mut Self {
        assert!(duration > 0.0, "bad outage duration");
        self.push(at, FaultKind::SiteCrash(site));
        self.push(at + duration, FaultKind::SiteRecover(site));
        self
    }

    /// Appends a seeded Poisson outage process over `links` (exponential
    /// mean-time-between-failures / mean-time-to-repair), reproducible
    /// under the caller's [`SimRng`] stream.
    pub fn poisson_link_outages(
        &mut self,
        rng: &mut SimRng,
        links: &[LinkId],
        horizon: f64,
        mtbf: f64,
        mttr: f64,
    ) -> &mut Self {
        for (t, lf) in lsds_net::poisson_link_outages(rng, links, horizon, mtbf, mttr) {
            self.push(t, FaultKind::Link(lf));
        }
        self
    }

    /// The scheduled events, in insertion order (the engine orders them by
    /// time when they are scheduled).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_builders_pair_events() {
        let mut s = FaultSchedule::new();
        s.link_outage(LinkId(0), 100.0, 50.0)
            .site_outage(SiteId(2), 200.0, 25.0)
            .degrade(LinkId(1), 10.0, 5.0, 0.25);
        assert_eq!(s.len(), 6);
        assert_eq!(
            s.events()[0].kind,
            FaultKind::Link(LinkFault::Down(LinkId(0)))
        );
        assert_eq!(s.events()[1].at, 150.0);
        assert_eq!(s.events()[2].kind, FaultKind::SiteCrash(SiteId(2)));
        assert_eq!(s.events()[3].kind, FaultKind::SiteRecover(SiteId(2)));
        assert_eq!(
            s.events()[5].kind,
            FaultKind::Link(LinkFault::Degrade {
                link: LinkId(1),
                factor: 1.0
            })
        );
    }

    #[test]
    #[should_panic(expected = "bad degrade factor")]
    fn degrade_rejects_zero_factor() {
        FaultSchedule::new().degrade(LinkId(0), 10.0, 5.0, 0.0);
    }

    #[test]
    fn degrade_rejects_every_bad_factor_when_built() {
        for factor in [-0.5, f64::NAN, f64::INFINITY] {
            let built = std::panic::catch_unwind(|| {
                FaultSchedule::new().degrade(LinkId(0), 10.0, 5.0, factor);
            });
            assert!(built.is_err(), "factor {factor} accepted");
        }
        let raw = std::panic::catch_unwind(|| {
            let bad = LinkFault::Degrade {
                link: LinkId(0),
                factor: f64::NAN,
            };
            FaultSchedule::new().push(1.0, FaultKind::Link(bad));
        });
        assert!(raw.is_err(), "push accepted a NaN factor");
    }

    #[test]
    fn seeded_schedule_reproduces() {
        let build = |seed| {
            let mut rng = SimRng::new(seed).fork(7);
            let mut s = FaultSchedule::new();
            s.poisson_link_outages(&mut rng, &[LinkId(0), LinkId(2)], 1.0e5, 5000.0, 600.0);
            s
        };
        let a = build(3);
        let b = build(3);
        assert_eq!(a.events().len(), b.events().len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.at.to_bits(), y.at.to_bits());
            assert_eq!(x.kind, y.kind);
        }
        assert!(!a.is_empty());
    }
}
