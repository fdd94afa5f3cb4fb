//! Middleware scheduling/brokering policies.
//!
//! The taxonomy's middleware layer "describes components such as
//! schedulers" and "analyses how the middleware system schedules the jobs
//! for execution inside a Grid system" (§3). The surveyed designs map to
//! the policies here:
//!
//! * [`FixedSite`] — Bricks' central model: everything runs at the server.
//! * [`RandomSite`] / [`RoundRobin`] / [`LeastLoaded`] — the baseline
//!   broker policies SimGrid-class studies compare against.
//! * [`Economy`] — GridSim's computational economy: deadline and budget
//!   constrained cost/time optimization across priced resources.
//! * [`DataAware`] — ChicagoSim: "scheduling strategies in conjunction
//!   with data location"; jobs go where their data (mostly) is.
// engine hot path: a failure here is a fallible result, not a panic
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::job::JobSpec;
use crate::site::SiteId;
use lsds_core::SimTime;
use lsds_stats::SimRng;

/// Per-site state snapshot offered to policies.
#[derive(Debug, Clone, Copy)]
pub struct SiteSnapshot {
    /// The site.
    pub id: SiteId,
    /// Whether the grid's organization allows placing jobs here.
    pub eligible: bool,
    /// Cores in the farm.
    pub cores: usize,
    /// Per-core speed.
    pub speed: f64,
    /// Jobs executing.
    pub running: usize,
    /// Jobs waiting locally.
    pub queued: usize,
    /// Price per reference-CPU-second.
    pub price: f64,
    /// Tier level.
    pub tier: u8,
}

impl SiteSnapshot {
    /// Jobs in system per unit capacity.
    pub fn load(&self) -> f64 {
        (self.running + self.queued) as f64 / (self.cores as f64 * self.speed)
    }

    /// Rough completion estimate for an additional job of `work`:
    /// current backlog drained at full capacity, plus the job itself.
    pub fn completion_estimate(&self, work: f64, backlog_work_guess: f64) -> f64 {
        let capacity = self.cores as f64 * self.speed;
        let backlog = (self.running + self.queued) as f64 * backlog_work_guess;
        backlog / capacity + work / self.speed
    }
}

/// Everything a policy may consult.
pub struct PlacementView<'a> {
    /// Site snapshots (indexed by `SiteId`).
    pub sites: &'a [SiteSnapshot],
    /// Bytes of the job's inputs *missing* at each site.
    pub missing_bytes: &'a [f64],
    /// Current time.
    pub now: SimTime,
}

impl<'a> PlacementView<'a> {
    fn eligible(&self) -> impl Iterator<Item = &SiteSnapshot> {
        self.sites.iter().filter(|s| s.eligible)
    }
}

/// A placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Run at this site.
    Site(SiteId),
    /// No feasible site *for this job* (economy policies under
    /// deadline/budget): the job is dropped with a rejection record.
    Reject,
    /// No site is currently available at all (e.g. every eligible site
    /// crashed): the grid queues the job and re-offers it later rather
    /// than aborting the run.
    Defer,
}

/// A site-selection (brokering) policy.
pub trait SchedulerPolicy: Send {
    /// Display name for experiment tables.
    fn name(&self) -> &'static str;
    /// Chooses where `job` runs.
    fn select(&mut self, job: &JobSpec, view: &PlacementView<'_>) -> Placement;
}

/// Everything to one fixed site (the Bricks central server).
pub struct FixedSite(pub SiteId);

impl SchedulerPolicy for FixedSite {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn select(&mut self, _job: &JobSpec, _view: &PlacementView<'_>) -> Placement {
        Placement::Site(self.0)
    }
}

/// Uniformly random eligible site.
pub struct RandomSite(pub SimRng);

impl SchedulerPolicy for RandomSite {
    fn name(&self) -> &'static str {
        "random"
    }
    fn select(&mut self, _job: &JobSpec, view: &PlacementView<'_>) -> Placement {
        let eligible: Vec<SiteId> = view.eligible().map(|s| s.id).collect();
        if eligible.is_empty() {
            return Placement::Defer;
        }
        Placement::Site(*self.0.choose(&eligible))
    }
}

/// Cycles through eligible sites.
#[derive(Default)]
pub struct RoundRobin {
    next: usize,
}

impl SchedulerPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }
    fn select(&mut self, _job: &JobSpec, view: &PlacementView<'_>) -> Placement {
        let eligible: Vec<SiteId> = view.eligible().map(|s| s.id).collect();
        if eligible.is_empty() {
            return Placement::Defer;
        }
        let site = eligible[self.next % eligible.len()];
        self.next += 1;
        Placement::Site(site)
    }
}

/// Minimum load per capacity; ties to the lower site id.
#[derive(Default)]
pub struct LeastLoaded;

impl SchedulerPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }
    fn select(&mut self, _job: &JobSpec, view: &PlacementView<'_>) -> Placement {
        match view
            .eligible()
            .min_by(|a, b| a.load().total_cmp(&b.load()).then(a.id.cmp(&b.id)))
        {
            Some(best) => Placement::Site(best.id),
            None => Placement::Defer,
        }
    }
}

/// What the economy broker optimizes subject to the other constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EconomyGoal {
    /// Cheapest site that still meets the deadline.
    CostMin,
    /// Fastest site that still fits the budget.
    TimeMin,
}

/// GridSim-style deadline-and-budget-constrained broker.
///
/// Time estimates use the site's backlog scaled by `backlog_work_guess`
/// (the broker does not know queued jobs' true sizes — GridSim brokers
/// estimate from historical averages).
pub struct Economy {
    /// Optimization goal.
    pub goal: EconomyGoal,
    /// Assumed work per already-queued job when estimating wait.
    pub backlog_work_guess: f64,
}

impl SchedulerPolicy for Economy {
    fn name(&self) -> &'static str {
        match self.goal {
            EconomyGoal::CostMin => "economy-cost",
            EconomyGoal::TimeMin => "economy-time",
        }
    }

    fn select(&mut self, job: &JobSpec, view: &PlacementView<'_>) -> Placement {
        if view.eligible().next().is_none() {
            // nothing to broker over at all — wait for sites to recover
            // rather than charging the job a deadline/budget rejection
            return Placement::Defer;
        }
        let deadline = job.deadline.unwrap_or(f64::INFINITY);
        let budget = job.budget.unwrap_or(f64::INFINITY);
        let mut best: Option<(f64, SiteId)> = None;
        #[expect(
            clippy::float_cmp,
            reason = "exact tie on an objective computed once per site; equal objectives fall back to the lower site id"
        )]
        for s in view.eligible() {
            let t = s.completion_estimate(job.work, self.backlog_work_guess);
            let cost = s.price * job.work;
            if t > deadline || cost > budget {
                continue;
            }
            let objective = match self.goal {
                EconomyGoal::CostMin => cost,
                EconomyGoal::TimeMin => t,
            };
            if best.is_none_or(|(b, bid)| objective < b || (objective == b && s.id < bid)) {
                best = Some((objective, s.id));
            }
        }
        match best {
            Some((_, id)) => Placement::Site(id),
            None => Placement::Reject,
        }
    }
}

/// ChicagoSim-style data-aware placement: minimize bytes to move, break
/// ties by load.
#[derive(Default)]
pub struct DataAware;

impl SchedulerPolicy for DataAware {
    fn name(&self) -> &'static str {
        "data-aware"
    }
    fn select(&mut self, _job: &JobSpec, view: &PlacementView<'_>) -> Placement {
        match view.eligible().min_by(|a, b| {
            view.missing_bytes[a.id.0]
                .total_cmp(&view.missing_bytes[b.id.0])
                .then(a.load().total_cmp(&b.load()))
                .then(a.id.cmp(&b.id))
        }) {
            Some(best) => Placement::Site(best.id),
            None => Placement::Defer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(id: usize, running: usize, queued: usize, speed: f64, price: f64) -> SiteSnapshot {
        SiteSnapshot {
            id: SiteId(id),
            eligible: true,
            cores: 4,
            speed,
            running,
            queued,
            price,
            tier: 1,
        }
    }

    fn job(work: f64, deadline: Option<f64>, budget: Option<f64>) -> JobSpec {
        JobSpec {
            id: crate::job::JobId(1),
            owner: 0,
            work,
            inputs: vec![],
            output_bytes: 0.0,
            submitted: SimTime::ZERO,
            deadline,
            budget,
        }
    }

    #[test]
    fn fixed_always_picks_its_site() {
        let mut p = FixedSite(SiteId(2));
        let sites = [snap(0, 0, 0, 1.0, 1.0)];
        let mb = [0.0];
        let view = PlacementView {
            sites: &sites,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        assert_eq!(
            p.select(&job(1.0, None, None), &view),
            Placement::Site(SiteId(2))
        );
    }

    #[test]
    fn least_loaded_picks_min_load() {
        let mut p = LeastLoaded;
        let sites = [
            snap(0, 4, 2, 1.0, 1.0),
            snap(1, 1, 0, 1.0, 1.0),
            snap(2, 2, 0, 1.0, 1.0),
        ];
        let mb = [0.0; 3];
        let view = PlacementView {
            sites: &sites,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        assert_eq!(
            p.select(&job(1.0, None, None), &view),
            Placement::Site(SiteId(1))
        );
    }

    #[test]
    fn least_loaded_ignores_ineligible() {
        let mut p = LeastLoaded;
        let mut idle = snap(0, 0, 0, 1.0, 1.0);
        idle.eligible = false;
        let sites = [idle, snap(1, 3, 3, 1.0, 1.0)];
        let mb = [0.0; 2];
        let view = PlacementView {
            sites: &sites,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        assert_eq!(
            p.select(&job(1.0, None, None), &view),
            Placement::Site(SiteId(1))
        );
    }

    #[test]
    fn round_robin_cycles() {
        let mut p = RoundRobin::default();
        let sites = [snap(0, 0, 0, 1.0, 1.0), snap(1, 0, 0, 1.0, 1.0)];
        let mb = [0.0; 2];
        let view = PlacementView {
            sites: &sites,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        let j = job(1.0, None, None);
        assert_eq!(p.select(&j, &view), Placement::Site(SiteId(0)));
        assert_eq!(p.select(&j, &view), Placement::Site(SiteId(1)));
        assert_eq!(p.select(&j, &view), Placement::Site(SiteId(0)));
    }

    #[test]
    fn economy_cost_picks_cheapest_feasible() {
        let mut p = Economy {
            goal: EconomyGoal::CostMin,
            backlog_work_guess: 10.0,
        };
        // site0 cheap but slow+busy; site1 pricier but fast
        let sites = [snap(0, 8, 8, 0.5, 1.0), snap(1, 0, 0, 4.0, 3.0)];
        let mb = [0.0; 2];
        let view = PlacementView {
            sites: &sites,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        // loose deadline: cheapest wins
        assert_eq!(
            p.select(&job(10.0, Some(1.0e6), Some(1.0e6)), &view),
            Placement::Site(SiteId(0))
        );
        // tight deadline: site0 estimate = 16*10/2 + 20 = 100 > 30 → site1
        assert_eq!(
            p.select(&job(10.0, Some(30.0), Some(1.0e6)), &view),
            Placement::Site(SiteId(1))
        );
        // tight deadline + tiny budget: nothing feasible
        assert_eq!(
            p.select(&job(10.0, Some(30.0), Some(5.0)), &view),
            Placement::Reject
        );
    }

    #[test]
    fn economy_time_picks_fastest_within_budget() {
        let mut p = Economy {
            goal: EconomyGoal::TimeMin,
            backlog_work_guess: 0.0,
        };
        let sites = [snap(0, 0, 0, 1.0, 1.0), snap(1, 0, 0, 4.0, 3.0)];
        let mb = [0.0; 2];
        let view = PlacementView {
            sites: &sites,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        // big budget: fastest (site1)
        assert_eq!(
            p.select(&job(10.0, None, Some(100.0)), &view),
            Placement::Site(SiteId(1))
        );
        // budget 15 < 30 rules out site1 → site0
        assert_eq!(
            p.select(&job(10.0, None, Some(15.0)), &view),
            Placement::Site(SiteId(0))
        );
    }

    #[test]
    fn data_aware_minimizes_movement() {
        let mut p = DataAware;
        let sites = [snap(0, 0, 0, 1.0, 1.0), snap(1, 5, 5, 1.0, 1.0)];
        let mb = [5.0e9, 0.0];
        let view = PlacementView {
            sites: &sites,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        // site1 is heavily loaded but holds the data
        assert_eq!(
            p.select(&job(1.0, None, None), &view),
            Placement::Site(SiteId(1))
        );
    }

    #[test]
    fn empty_eligible_set_defers_instead_of_panicking() {
        // every policy must degrade gracefully when all sites are down
        let mut down = [snap(0, 0, 0, 1.0, 1.0), snap(1, 0, 0, 1.0, 1.0)];
        for s in &mut down {
            s.eligible = false;
        }
        let mb = [0.0; 2];
        let view = PlacementView {
            sites: &down,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        let j = job(1.0, Some(100.0), Some(100.0));
        let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![
            Box::new(RandomSite(SimRng::new(1))),
            Box::new(RoundRobin::default()),
            Box::new(LeastLoaded),
            Box::new(DataAware),
            Box::new(Economy {
                goal: EconomyGoal::CostMin,
                backlog_work_guess: 1.0,
            }),
        ];
        for p in &mut policies {
            assert_eq!(p.select(&j, &view), Placement::Defer, "{}", p.name());
        }
    }

    #[test]
    fn round_robin_cursor_unmoved_by_deferral() {
        let mut p = RoundRobin::default();
        let sites = [snap(0, 0, 0, 1.0, 1.0), snap(1, 0, 0, 1.0, 1.0)];
        let mut down = sites;
        for s in &mut down {
            s.eligible = false;
        }
        let mb = [0.0; 2];
        let j = job(1.0, None, None);
        let up_view = PlacementView {
            sites: &sites,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        let down_view = PlacementView {
            sites: &down,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        assert_eq!(p.select(&j, &up_view), Placement::Site(SiteId(0)));
        assert_eq!(p.select(&j, &down_view), Placement::Defer);
        assert_eq!(
            p.select(&j, &up_view),
            Placement::Site(SiteId(1)),
            "deferral must not advance the cursor"
        );
    }

    #[test]
    fn random_is_deterministic_under_seed() {
        let sites = [snap(0, 0, 0, 1.0, 1.0), snap(1, 0, 0, 1.0, 1.0)];
        let mb = [0.0; 2];
        let view = PlacementView {
            sites: &sites,
            missing_bytes: &mb,
            now: SimTime::ZERO,
        };
        let j = job(1.0, None, None);
        let picks = |seed| {
            let mut p = RandomSite(SimRng::new(seed));
            (0..32).map(|_| p.select(&j, &view)).collect::<Vec<_>>()
        };
        assert_eq!(picks(1), picks(1));
    }
}
