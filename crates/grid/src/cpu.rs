//! CPU farms: time-shared and space-shared processing resources.
//!
//! GridSim's host model distinguishes "heterogeneous computing resources
//! (both time and space shared)" (§4); both modes live here behind one
//! component interface:
//!
//! * **Space-shared** — each job occupies one core exclusively; excess
//!   jobs wait in a queue ordered by the local [`Discipline`].
//! * **Time-shared** — egalitarian processor sharing: all admitted jobs
//!   run concurrently at `min(speed, cores·speed / n)` each, recomputed
//!   fluidly on every arrival and departure (the Bricks central-server
//!   flavor).

use crate::job::JobId;
use lsds_core::{Schedule, SimTime};
use std::collections::VecDeque;

/// CPU sharing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// One job per core; the rest queue.
    Space,
    /// Processor sharing across all admitted jobs.
    Time,
}

/// Local queue discipline for space-shared farms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// First come, first served.
    Fifo,
    /// Shortest job first.
    Sjf,
    /// Pick the job whose owner has consumed the least CPU so far.
    FairShare,
}

/// Events the farm schedules for itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuEvent {
    /// Predicted completion of `job`; stale generations are ignored.
    Finish {
        /// Job key.
        job: u64,
        /// Rate-change generation.
        gen: u64,
    },
}

/// A finished job as reported by the farm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuDone {
    /// The job.
    pub job: JobId,
    /// When it began executing.
    pub started: SimTime,
    /// Its owner.
    pub owner: u32,
}

struct Running {
    work_left: f64,
    rate: f64,
    last_update: SimTime,
    gen: u64,
    started: SimTime,
    owner: u32,
}

struct Waiting {
    job: u64,
    work: f64,
    owner: u32,
    enqueued: SimTime,
}

/// A farm of identical cores.
pub struct CpuFarm {
    cores: usize,
    /// Work units per second per core (relative speed).
    speed: f64,
    sharing: Sharing,
    discipline: Discipline,
    /// Executing jobs, kept sorted ascending by job id. The running set is
    /// scanned in id order on every progress advance and reshare, so a
    /// sorted vec gives those walks for free (no key collection, no sort,
    /// no hashing) and point lookups are a binary search.
    running: Vec<(u64, Running)>,
    queue: VecDeque<Waiting>,
    /// Cumulative CPU-seconds consumed per owner, indexed by owner id
    /// (owners are small dense ids; absent entries read as `0.0`).
    usage: Vec<f64>,
    /// Cumulative busy core-seconds (utilization reporting).
    busy_core_seconds: f64,
    completed: u64,
}

impl CpuFarm {
    /// Creates a farm of `cores` cores of the given `speed`.
    pub fn new(cores: usize, speed: f64, sharing: Sharing, discipline: Discipline) -> Self {
        assert!(cores > 0, "farm needs cores");
        assert!(speed > 0.0 && speed.is_finite(), "bad speed");
        CpuFarm {
            cores,
            speed,
            sharing,
            discipline,
            running: Vec::new(),
            queue: VecDeque::new(),
            usage: Vec::new(),
            busy_core_seconds: 0.0,
            completed: 0,
        }
    }

    /// Core count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Per-core speed.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Jobs waiting (always 0 for time-shared farms).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Jobs finished so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Cumulative busy core-seconds.
    pub fn busy_core_seconds(&self) -> f64 {
        self.busy_core_seconds
    }

    /// An estimate other components use for placement decisions: jobs in
    /// the system per unit of capacity.
    pub fn load(&self) -> f64 {
        (self.running.len() + self.queue.len()) as f64 / (self.cores as f64 * self.speed)
    }

    /// Expected execution seconds for `work` on an idle core.
    pub fn nominal_exec(&self, work: f64) -> f64 {
        work / self.speed
    }

    /// Submits a job with `work` reference-core seconds.
    pub fn submit(
        &mut self,
        job: JobId,
        work: f64,
        owner: u32,
        sched: &mut impl Schedule<CpuEvent>,
    ) {
        assert!(work > 0.0 && work.is_finite(), "bad work");
        match self.sharing {
            Sharing::Space => {
                if self.running.len() < self.cores {
                    self.start(job.0, work, owner, sched.now());
                    self.reschedule_space(job.0, sched);
                } else {
                    self.queue.push_back(Waiting {
                        job: job.0,
                        work,
                        owner,
                        enqueued: sched.now(),
                    });
                }
            }
            Sharing::Time => {
                let now = sched.now();
                self.advance_progress(now);
                self.start(job.0, work, owner, now);
                self.reshare_time(now, sched);
            }
        }
    }

    fn start(&mut self, job: u64, work: f64, owner: u32, now: SimTime) {
        let r = Running {
            work_left: work,
            rate: self.speed,
            last_update: now,
            gen: 0,
            started: now,
            owner,
        };
        match self.running.binary_search_by_key(&job, |&(j, _)| j) {
            Err(pos) => self.running.insert(pos, (job, r)),
            Ok(_) => panic!("job {job} already running"),
        }
    }

    /// Mutable access to a running job by id.
    fn running_mut(&mut self, job: u64) -> Option<&mut Running> {
        let i = self.running.binary_search_by_key(&job, |&(j, _)| j).ok()?;
        Some(&mut self.running[i].1)
    }

    /// Space-shared: completion is deterministic once started.
    fn reschedule_space(&mut self, job: u64, sched: &mut impl Schedule<CpuEvent>) {
        let speed = self.speed;
        let r = self.running_mut(job).expect("job not running");
        r.gen += 1;
        let eta = r.work_left / speed;
        sched.schedule_in(eta, CpuEvent::Finish { job, gen: r.gen });
    }

    /// Time-shared: recompute egalitarian PS rates and reschedule.
    fn reshare_time(&mut self, now: SimTime, sched: &mut impl Schedule<CpuEvent>) {
        let n = self.running.len();
        if n == 0 {
            return;
        }
        let rate = (self.cores as f64 * self.speed / n as f64).min(self.speed);
        // ascending job id (the vec's sort order): determinism
        for (k, r) in self.running.iter_mut() {
            r.rate = rate;
            r.gen += 1;
            let eta = r.work_left / rate;
            sched.schedule_at(
                now.after(eta),
                CpuEvent::Finish {
                    job: *k,
                    gen: r.gen,
                },
            );
        }
    }

    /// Accrues progress (and usage accounting) up to `now`.
    fn advance_progress(&mut self, now: SimTime) {
        // ascending job id (the vec's sort order): the per-owner usage
        // sums feed fair-share decisions, and float accumulation must not
        // depend on storage order
        for (_, r) in self.running.iter_mut() {
            let dt = now - r.last_update;
            if dt > 0.0 {
                let done = (r.rate * dt).min(r.work_left);
                r.work_left -= done;
                let o = r.owner as usize;
                if o >= self.usage.len() {
                    self.usage.resize(o + 1, 0.0);
                }
                self.usage[o] += done / self.speed;
                self.busy_core_seconds += (r.rate / self.speed) * dt;
                r.last_update = now;
            }
        }
    }

    /// Picks the next queued job per the discipline.
    fn dequeue_next(&mut self) -> Option<Waiting> {
        if self.queue.is_empty() {
            return None;
        }
        let idx = match self.discipline {
            Discipline::Fifo => 0,
            Discipline::Sjf => self
                .queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.work.total_cmp(&b.work).then(a.enqueued.cmp(&b.enqueued))
                })
                .map(|(i, _)| i)
                .expect("non-empty queue"),
            Discipline::FairShare => self
                .queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let ua = self.usage.get(a.owner as usize).copied().unwrap_or(0.0);
                    let ub = self.usage.get(b.owner as usize).copied().unwrap_or(0.0);
                    ua.total_cmp(&ub).then(a.enqueued.cmp(&b.enqueued))
                })
                .map(|(i, _)| i)
                .expect("non-empty queue"),
        };
        self.queue.remove(idx)
    }

    /// Crashes the farm at `now`: every running and queued job is lost and
    /// its id returned (ascending) so the grid can re-queue it elsewhere.
    /// Work done so far is gone — a resubmitted job starts from zero.
    /// Pending [`CpuEvent::Finish`] events for the lost jobs die on the
    /// existing generation check. The farm itself stays usable (site
    /// recovery is the owner's decision; see the grid model's `site_up`).
    pub fn crash(&mut self, now: SimTime) -> Vec<u64> {
        self.advance_progress(now); // usage/busy accounting stays exact
        let mut lost: Vec<u64> = self.running.iter().map(|&(j, _)| j).collect();
        lost.extend(self.queue.iter().map(|w| w.job));
        lost.sort_unstable();
        self.running.clear();
        self.queue.clear();
        lost
    }

    /// Handles a farm event, returning the job it completes, if any (a
    /// superseded `Finish` completes none).
    pub fn handle(&mut self, ev: CpuEvent, sched: &mut impl Schedule<CpuEvent>) -> Option<CpuDone> {
        let CpuEvent::Finish { job, gen } = ev;
        let valid = self
            .running
            .binary_search_by_key(&job, |&(j, _)| j)
            .is_ok_and(|i| self.running[i].1.gen == gen);
        if !valid {
            return None;
        }
        let now = sched.now();
        self.advance_progress(now);
        let i = self
            .running
            .binary_search_by_key(&job, |&(j, _)| j)
            .expect("validated above");
        let (_, r) = self.running.remove(i);
        debug_assert!(r.work_left <= 1e-6 * self.speed.max(1.0), "early finish");
        self.completed += 1;
        let done = CpuDone {
            job: JobId(job),
            started: r.started,
            owner: r.owner,
        };
        match self.sharing {
            Sharing::Space => {
                if let Some(next) = self.dequeue_next() {
                    self.start(next.job, next.work, next.owner, now);
                    self.reschedule_space(next.job, sched);
                }
            }
            Sharing::Time => {
                self.reshare_time(now, sched);
            }
        }
        Some(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsds_core::{Ctx, EventDriven, Model};
    use std::collections::HashMap;

    struct Harness {
        farm: CpuFarm,
        done: Vec<(u64, f64, f64)>, // (job, started, finished)
    }

    enum Ev {
        Submit(u64, f64, u32),
        Cpu(CpuEvent),
    }

    impl Model for Harness {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            match ev {
                Ev::Submit(j, w, o) => {
                    self.farm.submit(JobId(j), w, o, &mut ctx.map(Ev::Cpu));
                }
                Ev::Cpu(ce) => {
                    if let Some(d) = self.farm.handle(ce, &mut ctx.map(Ev::Cpu)) {
                        self.done
                            .push((d.job.0, d.started.seconds(), ctx.now().seconds()));
                    }
                }
            }
        }
    }

    fn run(farm: CpuFarm, submissions: Vec<(f64, u64, f64, u32)>) -> Vec<(u64, f64, f64)> {
        let mut sim = EventDriven::new(Harness { farm, done: vec![] });
        for (t, j, w, o) in submissions {
            sim.schedule(SimTime::new(t), Ev::Submit(j, w, o));
        }
        sim.run();
        sim.into_model().done
    }

    #[test]
    fn space_shared_runs_in_parallel_up_to_cores() {
        let farm = CpuFarm::new(2, 1.0, Sharing::Space, Discipline::Fifo);
        let done = run(
            farm,
            vec![(0.0, 1, 10.0, 0), (0.0, 2, 10.0, 0), (0.0, 3, 10.0, 0)],
        );
        // jobs 1,2 run immediately (finish at 10); job 3 queues until 10,
        // finishes at 20
        let f: HashMap<u64, f64> = done.iter().map(|&(j, _, e)| (j, e)).collect();
        assert_eq!(f[&1], 10.0);
        assert_eq!(f[&2], 10.0);
        assert_eq!(f[&3], 20.0);
    }

    #[test]
    fn crash_loses_jobs_and_invalidates_finish_events() {
        struct CrashHarness {
            farm: CpuFarm,
            done: Vec<u64>,
            lost: Vec<u64>,
        }
        enum CEv {
            Submit(u64, f64),
            Crash,
            Cpu(CpuEvent),
        }
        impl Model for CrashHarness {
            type Event = CEv;
            fn handle(&mut self, ev: CEv, ctx: &mut Ctx<'_, CEv>) {
                match ev {
                    CEv::Submit(j, w) => {
                        self.farm.submit(JobId(j), w, 0, &mut ctx.map(CEv::Cpu));
                    }
                    CEv::Crash => {
                        self.lost = self.farm.crash(ctx.now());
                    }
                    CEv::Cpu(ce) => {
                        if let Some(d) = self.farm.handle(ce, &mut ctx.map(CEv::Cpu)) {
                            self.done.push(d.job.0);
                        }
                    }
                }
            }
        }
        let mut sim = EventDriven::new(CrashHarness {
            farm: CpuFarm::new(1, 1.0, Sharing::Space, Discipline::Fifo),
            done: vec![],
            lost: vec![],
        });
        // job 1 finishes at t=2; jobs 2 (running) and 3 (queued) are lost
        // at the t=5 crash, and their stale Finish events must be no-ops
        sim.schedule(SimTime::ZERO, CEv::Submit(1, 2.0));
        sim.schedule(SimTime::new(3.0), CEv::Submit(2, 10.0));
        sim.schedule(SimTime::new(4.0), CEv::Submit(3, 10.0));
        sim.schedule(SimTime::new(5.0), CEv::Crash);
        sim.run();
        let m = sim.into_model();
        assert_eq!(m.done, vec![1]);
        assert_eq!(m.lost, vec![2, 3], "running + queued, ascending");
        assert_eq!(m.farm.running(), 0);
        assert_eq!(m.farm.queued(), 0);
        assert_eq!(m.farm.completed(), 1);
        // accounting up to the crash is retained: 2 s (job 1) + 2 s (job 2)
        assert!((m.farm.busy_core_seconds() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sjf_reorders_queue() {
        let farm = CpuFarm::new(1, 1.0, Sharing::Space, Discipline::Sjf);
        let done = run(
            farm,
            vec![
                (0.0, 1, 10.0, 0), // runs first (farm idle)
                (1.0, 2, 5.0, 0),  // queued
                (2.0, 3, 1.0, 0),  // queued, shorter
            ],
        );
        let order: Vec<u64> = done.iter().map(|&(j, ..)| j).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn fairshare_prefers_light_owner() {
        let farm = CpuFarm::new(1, 1.0, Sharing::Space, Discipline::FairShare);
        // owner 0 hogs first; then one job each from owner 0 and owner 1
        // queue — fair share picks owner 1 first
        let done = run(
            farm,
            vec![(0.0, 1, 10.0, 0), (1.0, 2, 5.0, 0), (2.0, 3, 5.0, 1)],
        );
        let order: Vec<u64> = done.iter().map(|&(j, ..)| j).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn time_shared_processor_sharing() {
        let farm = CpuFarm::new(1, 1.0, Sharing::Time, Discipline::Fifo);
        // two equal jobs sharing one core: each runs at 0.5 → finish at 20
        let done = run(farm, vec![(0.0, 1, 10.0, 0), (0.0, 2, 10.0, 0)]);
        for &(_, _, end) in &done {
            assert!((end - 20.0).abs() < 1e-9, "end {end}");
        }
    }

    #[test]
    fn time_shared_departure_speeds_up_rest() {
        let farm = CpuFarm::new(1, 1.0, Sharing::Time, Discipline::Fifo);
        // job1 5s work, job2 10s: share until job1 done at t=10;
        // job2 has 5 left at full speed → done at 15
        let done = run(farm, vec![(0.0, 1, 5.0, 0), (0.0, 2, 10.0, 0)]);
        let f: HashMap<u64, f64> = done.iter().map(|&(j, _, e)| (j, e)).collect();
        assert!((f[&1] - 10.0).abs() < 1e-9);
        assert!((f[&2] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn time_shared_multi_core_caps_per_job_rate() {
        let farm = CpuFarm::new(4, 2.0, Sharing::Time, Discipline::Fifo);
        // 2 jobs on 4 cores: each runs at full per-core speed 2.0
        let done = run(farm, vec![(0.0, 1, 10.0, 0), (0.0, 2, 10.0, 0)]);
        for &(_, _, end) in &done {
            assert!((end - 5.0).abs() < 1e-9, "end {end}");
        }
    }

    #[test]
    fn speed_scales_execution() {
        let farm = CpuFarm::new(1, 4.0, Sharing::Space, Discipline::Fifo);
        let done = run(farm, vec![(0.0, 1, 10.0, 0)]);
        assert!((done[0].2 - 2.5).abs() < 1e-9);
    }

    #[test]
    fn utilization_accounting() {
        let mut sim = EventDriven::new(Harness {
            farm: CpuFarm::new(2, 1.0, Sharing::Space, Discipline::Fifo),
            done: vec![],
        });
        sim.schedule(SimTime::ZERO, Ev::Submit(1, 10.0, 0));
        sim.schedule(SimTime::ZERO, Ev::Submit(2, 10.0, 0));
        sim.run();
        // two cores busy for 10 s each
        assert!((sim.model().farm.busy_core_seconds() - 20.0).abs() < 1e-9);
        assert_eq!(sim.model().farm.completed(), 2);
    }

    #[test]
    fn load_metric() {
        let farm = CpuFarm::new(4, 2.0, Sharing::Space, Discipline::Fifo);
        assert_eq!(farm.load(), 0.0);
        assert_eq!(farm.nominal_exec(10.0), 5.0);
    }
}
