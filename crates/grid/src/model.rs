//! The composed Grid model: hosts + network + middleware + applications.
//!
//! `GridModel` is the one place where the four taxonomy layers meet: jobs
//! flow from [`Activity`] generators through a [`SchedulerPolicy`] broker
//! to a [`Site`]'s CPU farm, staging their input files over the fluid
//! network under a [`ReplicationPolicy`]. The six simulator facades in
//! `lsds-simulators` are thin configurations of this model.

use crate::activity::{Activity, ActivityEvent};
use crate::cpu::CpuEvent;
use crate::fault::{FaultKind, FaultSchedule};
use crate::job::{JobId, JobRecord, JobRecords, JobSpec};
use crate::organization::BuiltGrid;
use crate::replication::{FileCatalog, FileId, PushTracker, ReplicationAgent, ReplicationPolicy};
use crate::scheduler::{Placement, PlacementView, SchedulerPolicy, SiteSnapshot};
use crate::site::{Site, SiteId};
use crate::storage::{DbEvent, FileMeta, TapeEvent};
use lsds_core::{Ctx, EventDriven, IdMap, Model, SimTime, Slab};
use lsds_net::{FlowEvent, FlowNet, NodeId, RetryPolicy};
use lsds_obs::{Registry, SpanKind};
use lsds_stats::{Dist, SimRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// Transfer purposes, encoded in flow tags.
const KIND_STAGE: u64 = 0;
const KIND_PUSH: u64 = 1;
const KIND_AGENT: u64 = 2;

fn tag(kind: u64, a: u64, b: u64) -> u64 {
    assert!(a < (1 << 28) && b < (1 << 28), "tag overflow");
    (kind << 56) | (a << 28) | b
}

fn untag(t: u64) -> (u64, u64, u64) {
    (t >> 56, (t >> 28) & 0xFFF_FFFF, t & 0xFFF_FFFF)
}

/// Dataset production at one site (the LHC "T0" pattern: detector output
/// is registered, stored, and — with an agent — shipped to subscribers).
pub struct Production {
    /// Producing site.
    pub site: SiteId,
    /// Time between produced datasets.
    pub interarrival: Dist,
    /// Dataset size distribution (bytes).
    pub size: Dist,
    /// Stop after this many datasets (None = unbounded).
    pub limit: Option<u64>,
}

/// Full grid scenario configuration.
pub struct GridConfig {
    /// Sites + topology (see [`crate::organization`] builders).
    pub grid: BuiltGrid,
    /// Brokering policy.
    pub policy: Box<dyn SchedulerPolicy>,
    /// Replica management strategy.
    pub replication: ReplicationPolicy,
    /// Job sources.
    pub activities: Vec<Activity>,
    /// Optional dataset production.
    pub production: Option<Production>,
    /// Replication-agent concurrency; `Some(k)` enables the agent with at
    /// most `k` parallel shipments to the producer's subscribers (the
    /// non-producing tier-1 sites, or all other sites in a flat grid).
    pub agent: Option<usize>,
    /// Which sites may execute jobs (defaults: all with >0 real speed).
    pub eligible: Option<Vec<bool>>,
    /// Pre-registered files: `(size, origin)`.
    pub initial_files: Vec<(f64, SiteId)>,
    /// Master seed.
    pub seed: u64,
}

/// Events of the composed model.
pub enum GridEvent {
    /// Model start: primes activities and production.
    Init,
    /// Activity `idx` submits its next job.
    Activity {
        /// Index into the activity table.
        idx: usize,
    },
    /// CPU farm event at a site.
    Cpu {
        /// Site index.
        site: usize,
        /// The farm's event.
        ev: CpuEvent,
    },
    /// An externally injected job submission — the hook for driving the
    /// grid from monitored data (a replayed job-arrival trace) instead of
    /// the built-in generators; see the taxonomy's input-data axis. The
    /// caller must use ids disjoint from generator-produced ones (the
    /// generators count up from 0, so high ids are safe).
    Submit(JobSpec),
    /// Fluid network event.
    Net(FlowEvent),
    /// Mass-storage (tape) event at a site.
    Tape {
        /// Site index.
        site: usize,
        /// The silo's event.
        ev: TapeEvent,
    },
    /// Database-server event at a site.
    Db {
        /// Site index.
        site: usize,
        /// The server's event.
        ev: DbEvent,
    },
    /// Next dataset rolls off production.
    Produce,
    /// An injected fault fires (scheduled at `Init` from the
    /// [`FaultSchedule`]).
    Fault(FaultKind),
    /// Backoff expired for a failed transfer, identified by its flow tag:
    /// re-resolve the source and try again.
    RetryTransfer {
        /// The failed transfer's tag.
        tag: u64,
    },
    /// A transfer attempt failed (its flow aborted, or it could not even
    /// start): count the attempt, then back off or give up. Delivered as
    /// an event so the unwinding never runs inside a caller that is still
    /// mutating job state.
    TransferFailed {
        /// The failed transfer's tag.
        tag: u64,
    },
    /// Re-offer jobs the broker deferred (no site was available).
    RetryDeferred,
    /// Re-submission of a job lost to a site crash or a dead staging
    /// transfer. Unlike [`GridEvent::Submit`], the original submission
    /// time is kept, so the outage shows up in the job's makespan.
    Resubmit(JobSpec),
}

struct PendingJob {
    spec: JobSpec,
    site: SiteId,
    missing: usize,
    staged_bytes: f64,
    pinned: Vec<FileId>,
    /// When staging finished (set when the job enters execution).
    staged: Option<SimTime>,
}

/// Optional MonALISA-style monitoring attached to a [`GridModel`]: per-site
/// CPU and storage occupancy series plus job-state counters. `None` by
/// default; enabling it never feeds back into the simulation (the sampler
/// only reads model state), so monitored and unmonitored runs produce
/// identical job records.
struct GridObs {
    reg: Registry,
    /// Precomputed series keys: `(cpu_running, disk_used)` per site.
    site_keys: Vec<(String, String)>,
}

/// Aggregated outcome of a grid run.
#[derive(Debug, Clone)]
pub struct GridReport {
    /// Per-job records, in completion order; shared with the model.
    pub records: JobRecords,
    /// Jobs rejected by the broker (economy infeasibility).
    pub rejected: u64,
    /// Total bytes staged over the WAN.
    pub wan_bytes: f64,
    /// Push replications triggered.
    pub pushes: u64,
    /// Agent shipments completed.
    pub agent_shipped: u64,
    /// Datasets produced.
    pub produced: u64,
    /// Mean job makespan.
    pub mean_makespan: f64,
    /// Mean staging time.
    pub mean_stage_time: f64,
    /// Fraction of deadline-carrying jobs that met their deadline.
    pub deadline_hit_rate: f64,
    /// Total grid-currency spend.
    pub total_cost: f64,
    /// Mass-storage recalls performed.
    pub tape_recalls: u64,
    /// Metadata (database) queries answered.
    pub db_queries: u64,
    /// Site crashes injected.
    pub site_faults: u64,
    /// Jobs re-queued after a site crash or dead staging transfer.
    pub jobs_requeued: u64,
    /// Jobs deferred because no site was available.
    pub jobs_deferred: u64,
    /// Transfer retry attempts issued.
    pub transfer_retries: u64,
    /// Transfers abandoned after exhausting the retry budget.
    pub transfer_failures: u64,
}

/// The composed model. Implements [`Model`], so any engine in
/// `lsds-core` can run it.
pub struct GridModel {
    sites: Vec<Site>,
    eligible: Vec<bool>,
    net: FlowNet,
    catalog: FileCatalog,
    policy: Box<dyn SchedulerPolicy>,
    replication: ReplicationPolicy,
    push_tracker: PushTracker,
    agent: Option<ReplicationAgent>,
    activities: Vec<Activity>,
    production: Option<Production>,
    produced: u64,
    next_job_id: u64,
    /// In-flight jobs, slab-allocated; `pmap` maps the dense monotone job
    /// id to its slot so the per-event lookups are array indexing, not
    /// hashing (the million-job scenarios touch this map twice per job).
    pending: Slab<PendingJob>,
    pmap: IdMap,
    /// In-flight stage transfers: `(file, dst site) → waiting job ids`.
    /// A second job needing the same file at the same site joins the
    /// existing fetch instead of starting a duplicate transfer.
    inflight_fetch: HashMap<(u64, usize), Vec<u64>>,
    /// Files archived on a site's tape (not on its disk): `(file, site)`.
    on_tape: HashSet<(u64, usize)>,
    /// In-flight tape recalls: `(file, holding site) → destination sites
    /// whose WAN transfers start when the recall completes`.
    inflight_recall: HashMap<(u64, usize), Vec<usize>>,
    /// Jobs waiting on a metadata query before staging.
    awaiting_db: HashMap<u64, (JobSpec, SiteId)>,
    tape_recalls: u64,
    db_queries: u64,
    records: JobRecords,
    rejected: u64,
    wan_bytes: f64,
    /// Fault events to inject, scheduled at `Init`.
    faults: FaultSchedule,
    /// Transfer retry/backoff knobs.
    retry: RetryPolicy,
    /// Whether each site currently accepts placements (crash state).
    site_up: Vec<bool>,
    /// Failed attempts so far per transfer tag (absent = clean record).
    retry_attempts: HashMap<u64, u32>,
    /// Reused [`FlowNet::handle_into`] completion buffer (empty between
    /// events).
    net_done: Vec<lsds_net::FlowDone>,
    /// The broker's view of the sites, rebuilt in place for each job.
    view_sites: Vec<SiteSnapshot>,
    /// Per site, the bytes of the job's inputs it lacks; rebuilt in place
    /// for each job.
    view_missing: Vec<f64>,
    /// Jobs the broker deferred while no site was available.
    deferred: VecDeque<JobSpec>,
    /// Whether a `RetryDeferred` sweep is already scheduled.
    deferred_retry_pending: bool,
    /// Delay before re-offering deferred jobs, seconds.
    defer_retry_delay: f64,
    site_faults: u64,
    transfer_retries: u64,
    transfer_failures: u64,
    jobs_requeued: u64,
    jobs_deferred: u64,
    agent_failed: u64,
    /// Production log: `(file, time)` per produced dataset.
    produced_log: Vec<(u64, f64)>,
    /// Agent shipment log: `(file, destination site, completion time)`.
    agent_log: Vec<(u64, usize, f64)>,
    rng: SimRng,
    monitor: Option<GridObs>,
}

impl GridModel {
    /// Builds the model and an event-driven engine around it, with the
    /// init event already scheduled.
    pub fn build(config: GridConfig) -> EventDriven<GridModel> {
        let model = GridModel::new(config);
        let mut sim = EventDriven::new(model);
        sim.schedule(SimTime::ZERO, GridEvent::Init);
        sim
    }

    /// Builds just the model (for custom engines).
    pub fn new(config: GridConfig) -> Self {
        let GridConfig {
            grid,
            policy,
            replication,
            activities,
            production,
            agent,
            eligible,
            initial_files,
            seed,
        } = config;
        let BuiltGrid {
            mut sites,
            topology,
            parents,
            ..
        } = grid;
        let eligible =
            eligible.unwrap_or_else(|| sites.iter().map(|s| s.cpu.speed() > 1e-3).collect());
        assert_eq!(eligible.len(), sites.len());
        assert!(eligible.iter().any(|&e| e), "no eligible execution sites");
        let net = FlowNet::new(topology);
        let mut catalog = FileCatalog::new();
        for (size, origin) in initial_files {
            let f = catalog.register(size, origin);
            let site = &mut sites[origin.0];
            site.disk.store(f, size, SimTime::ZERO);
            site.disk.pin(f); // origin copies are never evicted
        }
        let agent = agent.map(|k| {
            let producer = production.as_ref().expect("agent requires production").site;
            // subscribers: the producer's children in a tiered grid, or
            // every other eligible site otherwise
            let children: Vec<SiteId> = parents
                .iter()
                .enumerate()
                .filter(|(_, p)| **p == Some(producer))
                .map(|(i, _)| SiteId(i))
                .collect();
            let subs = if children.is_empty() {
                sites
                    .iter()
                    .filter(|s| s.id != producer)
                    .map(|s| s.id)
                    .collect()
            } else {
                children
            };
            ReplicationAgent::new(subs, k)
        });
        let n_sites = sites.len();
        GridModel {
            sites,
            eligible,
            net,
            catalog,
            policy,
            replication,
            push_tracker: PushTracker::new(),
            agent,
            activities,
            production,
            produced: 0,
            next_job_id: 0,
            pending: Slab::new(),
            pmap: IdMap::new(),
            inflight_fetch: HashMap::new(),
            on_tape: HashSet::new(),
            inflight_recall: HashMap::new(),
            awaiting_db: HashMap::new(),
            tape_recalls: 0,
            db_queries: 0,
            records: JobRecords::default(),
            rejected: 0,
            wan_bytes: 0.0,
            faults: FaultSchedule::new(),
            retry: RetryPolicy::default(),
            site_up: vec![true; n_sites],
            retry_attempts: HashMap::new(),
            net_done: Vec::new(),
            view_sites: Vec::new(),
            view_missing: Vec::new(),
            deferred: VecDeque::new(),
            deferred_retry_pending: false,
            defer_retry_delay: 30.0,
            site_faults: 0,
            transfer_retries: 0,
            transfer_failures: 0,
            jobs_requeued: 0,
            jobs_deferred: 0,
            agent_failed: 0,
            produced_log: Vec::new(),
            agent_log: Vec::new(),
            rng: SimRng::new(seed),
            monitor: None,
        }
    }

    /// Turns on monitoring: per-site CPU/storage occupancy series and job
    /// counters accumulate from this point on. Also enables monitoring on
    /// the embedded [`FlowNet`] (link utilization, transfer latencies).
    pub fn enable_monitor(&mut self) {
        let site_keys = (0..self.sites.len())
            .map(|i| {
                (
                    format!("grid.site.{i}.cpu_running"),
                    format!("grid.site.{i}.disk_used"),
                )
            })
            .collect();
        self.monitor = Some(GridObs {
            reg: Registry::new(),
            site_keys,
        });
        self.net.enable_monitor();
    }

    /// The grid monitoring registry, if monitoring is enabled.
    pub fn monitor(&self) -> Option<&Registry> {
        self.monitor.as_ref().map(|m| &m.reg)
    }

    /// Installs the fault schedule for this run. Call before the `Init`
    /// event executes (e.g. right after [`GridModel::build`]); the events
    /// are injected through the engine at their scheduled times.
    pub fn set_faults(&mut self, faults: FaultSchedule) {
        self.faults = faults;
    }

    /// Replaces the transfer retry/backoff policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Sets the delay before deferred jobs are re-offered to the broker.
    pub fn set_defer_retry_delay(&mut self, dt: f64) {
        assert!(dt > 0.0 && dt.is_finite(), "bad defer retry delay");
        self.defer_retry_delay = dt;
    }

    /// Whether a site currently accepts placements (not crashed).
    pub fn site_is_up(&self, site: SiteId) -> bool {
        self.site_up[site.0]
    }

    /// Jobs re-queued after losing their site or their staging transfers.
    pub fn jobs_requeued(&self) -> u64 {
        self.jobs_requeued
    }

    /// Transfer retry attempts issued so far.
    pub fn transfer_retries(&self) -> u64 {
        self.transfer_retries
    }

    /// Merges grid *and* network metrics into `reg`: job-state counters
    /// and summaries (always available) plus the occupancy/utilization
    /// series accumulated since [`GridModel::enable_monitor`].
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.inc("grid.jobs.completed", self.records.len() as u64);
        reg.inc("grid.jobs.rejected", self.rejected);
        reg.inc("grid.jobs.requeued", self.jobs_requeued);
        reg.inc("grid.jobs.deferred", self.jobs_deferred);
        reg.inc("grid.site_faults", self.site_faults);
        reg.inc("grid.transfer_retries", self.transfer_retries);
        reg.inc("grid.transfer_failures", self.transfer_failures);
        reg.inc("grid.agent_failed", self.agent_failed);
        reg.inc("grid.datasets.produced", self.produced);
        reg.inc("grid.tape_recalls", self.tape_recalls);
        reg.inc("grid.db_queries", self.db_queries);
        reg.set_gauge("grid.jobs.in_flight", self.in_flight() as f64);
        reg.set_gauge("grid.wan_bytes", self.wan_bytes);
        for r in &self.records {
            reg.observe("grid.job.makespan", r.makespan());
            reg.observe("grid.job.stage_time", r.stage_time());
        }
        self.net.export_metrics(reg);
        if let Some(mon) = &self.monitor {
            reg.merge(mon.reg.clone());
        }
    }

    /// Samples every site's occupancy into the monitor's series. No-op
    /// when monitoring is off.
    fn record_site_state(&mut self, now: SimTime) {
        let Some(mon) = self.monitor.as_mut() else {
            return;
        };
        let t = now.seconds();
        for (i, site) in self.sites.iter().enumerate() {
            let (cpu_key, disk_key) = &mon.site_keys[i];
            mon.reg.series_update(cpu_key, t, site.cpu.running() as f64);
            mon.reg.series_update(disk_key, t, site.disk.used());
        }
    }

    /// Immutable site access.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0]
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The replica catalog.
    pub fn catalog(&self) -> &FileCatalog {
        &self.catalog
    }

    /// The network.
    pub fn net(&self) -> &FlowNet {
        &self.net
    }

    /// Completed job records.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Jobs in flight (deferred, awaiting metadata, staging, or executing:
    /// a job stays pending until its CPU completion).
    pub fn in_flight(&self) -> usize {
        self.deferred.len() + self.awaiting_db.len() + self.pending.len()
    }

    /// Datasets produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// The replication agent, if enabled.
    pub fn agent(&self) -> Option<&ReplicationAgent> {
        self.agent.as_ref()
    }

    /// Production log: `(file id, production time)` per dataset.
    pub fn produced_log(&self) -> &[(u64, f64)] {
        &self.produced_log
    }

    /// Agent shipment log: `(file id, destination site, completion time)`.
    pub fn agent_log(&self) -> &[(u64, usize, f64)] {
        &self.agent_log
    }

    /// Pre-places a replica of an already-registered file at `site`
    /// (what a replication agent achieves ahead of time). Call before
    /// running; panics if the disk cannot hold it.
    pub fn prestage_replica(&mut self, file: FileId, site: SiteId) {
        let size = self.catalog.size(file);
        if self.sites[site.0].disk.has(file) {
            return;
        }
        self.sites[site.0].disk.store(file, size, SimTime::ZERO);
        self.catalog.add_replica(file, site);
    }

    /// Aggregate report.
    pub fn report(&self) -> GridReport {
        let (mut makespan, mut stage, mut cost) = (0.0, 0.0, 0.0);
        let (mut jobs, mut met) = (0u64, 0u64);
        for r in &self.records {
            jobs += 1;
            // Welford's running means, bit for bit as `Summary::mean` has
            // them but without its histogram: a report allocates nothing
            // per finished job
            let n = jobs as f64;
            makespan += (r.makespan() - makespan) / n;
            stage += (r.stage_time() - stage) / n;
            cost += r.cost;
            if r.deadline_met {
                met += 1;
            }
        }
        GridReport {
            records: self.records.clone(),
            rejected: self.rejected,
            wan_bytes: self.wan_bytes,
            pushes: self.push_tracker.pushes(),
            agent_shipped: self.agent.as_ref().map_or(0, |a| a.shipped()),
            produced: self.produced,
            mean_makespan: makespan,
            mean_stage_time: stage,
            deadline_hit_rate: if jobs == 0 {
                1.0
            } else {
                met as f64 / jobs as f64
            },
            total_cost: cost,
            tape_recalls: self.tape_recalls,
            db_queries: self.db_queries,
            site_faults: self.site_faults,
            jobs_requeued: self.jobs_requeued,
            jobs_deferred: self.jobs_deferred,
            transfer_retries: self.transfer_retries,
            transfer_failures: self.transfer_failures,
        }
    }

    /// Registers a file that exists only on `origin`'s tape silo: the
    /// first staging from `origin` recalls it to disk (MONARC's mass
    /// storage units). Call before running; `origin` must have a tape.
    pub fn archive_file(&mut self, size: f64, origin: SiteId) -> FileId {
        assert!(
            self.sites[origin.0].tape.is_some(),
            "archive_file at a site without mass storage"
        );
        let f = self.catalog.register(size, origin);
        self.on_tape.insert((f.0, origin.0));
        f
    }

    fn latency_between(&self, a: SiteId, b: SiteId) -> f64 {
        // served from FlowNet's pairwise route cache: replica-selection
        // scans probe the same (holder, target) pairs over and over
        self.net
            .path_latency(self.sites[a.0].node, self.sites[b.0].node)
            .unwrap_or(f64::INFINITY)
    }

    /// The eviction key for the current pull policy.
    fn eviction_key(&self) -> fn(&FileMeta) -> f64 {
        match self.replication {
            ReplicationPolicy::PullLfu => |m: &FileMeta| m.accesses as f64,
            // LRU is the default order for every other storing policy
            _ => |m: &FileMeta| m.last_access.seconds(),
        }
    }

    /// Stores `file` at `site` if the policy wants a replica and room can
    /// be made; returns true if stored. Evicted replicas leave the
    /// catalog.
    fn try_store_replica(&mut self, file: FileId, site: SiteId, now: SimTime) -> bool {
        let size = self.catalog.size(file);
        if self.sites[site.0].disk.has(file) {
            return true;
        }
        if let ReplicationPolicy::PullEconomic = self.replication {
            // economic veto: do not evict files that have shown reuse
            let candidates = self.sites[site.0]
                .disk
                .evict_candidates(self.eviction_key());
            let mut need = size - self.sites[site.0].disk.free();
            for (id, _) in &candidates {
                if need <= 0.0 {
                    break;
                }
                let m = self.sites[site.0].disk.meta(*id).expect("candidate");
                if m.accesses >= 2 {
                    return false; // victims still valuable
                }
                need -= m.size;
            }
        }
        self.evict_and_store(site, size, now, |_| file).is_some()
    }

    /// The one way a file lands on a disk mid-run: evicts unpinned files
    /// from `site` in the pull policy's order until `size` bytes fit (the
    /// evicted replicas leave the catalog), then stores the file that
    /// `file` names and records the replica. `file` runs only once there
    /// is room, so an output is registered only if it is stored. `None`,
    /// with nothing evicted, if even full eviction cannot make room.
    fn evict_and_store(
        &mut self,
        site: SiteId,
        size: f64,
        now: SimTime,
        file: impl FnOnce(&mut FileCatalog) -> FileId,
    ) -> Option<FileId> {
        let key = self.eviction_key();
        for ev in self.sites[site.0].disk.make_room(size, key)? {
            self.catalog.remove_replica(ev, site);
        }
        let file = file(&mut self.catalog);
        self.sites[site.0].disk.store(file, size, now);
        self.catalog.add_replica(file, site);
        Some(file)
    }

    fn submit_job(&mut self, spec: JobSpec, ctx: &mut Ctx<'_, GridEvent>) {
        // build the broker's view in the reused buffers
        self.view_sites.clear();
        self.view_sites
            .extend(self.sites.iter().enumerate().map(|(i, s)| SiteSnapshot {
                id: s.id,
                eligible: self.eligible[i] && self.site_up[i],
                cores: s.cpu.cores(),
                speed: s.cpu.speed(),
                running: s.cpu.running(),
                queued: s.cpu.queued(),
                price: s.price,
                tier: s.tier,
            }));
        self.view_missing.clear();
        self.view_missing.extend(self.sites.iter().map(|s| {
            spec.inputs
                .iter()
                .filter(|f| !s.disk.has(**f))
                .map(|f| self.catalog.size(*f))
                .sum::<f64>()
        }));
        let view = PlacementView {
            sites: &self.view_sites,
            missing_bytes: &self.view_missing,
            now: ctx.now(),
        };
        let site = match self.policy.select(&spec, &view) {
            // a policy that ignores the view (e.g. `FixedSite`) can pick
            // a crashed site: hold the job until the site recovers
            Placement::Site(s) if !self.site_up[s.0] => {
                self.defer_job(spec, ctx);
                return;
            }
            Placement::Site(s) => s,
            Placement::Defer => {
                self.defer_job(spec, ctx);
                return;
            }
            Placement::Reject => {
                self.rejected += 1;
                return;
            }
        };

        // a site with a database server answers a metadata query before
        // staging can begin (the MONARC regional-center DB component)
        if self.sites[site.0].db.is_some() {
            self.db_queries += 1;
            let s = site.0;
            let job_id = spec.id.0;
            self.awaiting_db.insert(job_id, (spec, site));
            self.sites[s].db.as_mut().expect("checked above").query(
                job_id,
                &mut ctx.map(move |ev| GridEvent::Db { site: s, ev }),
            );
            return;
        }
        self.begin_staging(spec, site, ctx);
    }

    /// No site can take the job right now: park it and re-offer later
    /// (graceful degradation instead of the broker panicking on an empty
    /// eligible set).
    fn defer_job(&mut self, spec: JobSpec, ctx: &mut Ctx<'_, GridEvent>) {
        self.jobs_deferred += 1;
        self.deferred.push_back(spec);
        self.schedule_deferred_retry(ctx);
    }

    fn schedule_deferred_retry(&mut self, ctx: &mut Ctx<'_, GridEvent>) {
        if self.deferred_retry_pending || self.deferred.is_empty() {
            return;
        }
        self.deferred_retry_pending = true;
        ctx.schedule_in(self.defer_retry_delay, GridEvent::RetryDeferred);
    }

    /// Starts a WAN transfer; when no route currently exists (every path
    /// crosses a down link) the tag goes straight into the retry path.
    fn start_or_retry(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        t: u64,
        ctx: &mut Ctx<'_, GridEvent>,
    ) {
        if self
            .net
            .try_start(src, dst, bytes, t, &mut ctx.map(GridEvent::Net))
            .is_err()
        {
            ctx.schedule_in(0.0, GridEvent::TransferFailed { tag: t });
        }
    }

    /// A transfer attempt on tag `t` failed: back off and retry, or give
    /// up once the policy's budget is spent and unwind the waiting work.
    fn on_transfer_failed(&mut self, t: u64, ctx: &mut Ctx<'_, GridEvent>) {
        let n = {
            let e = self.retry_attempts.entry(t).or_insert(0);
            *e += 1;
            *e
        };
        if n > self.retry.max_retries {
            self.retry_attempts.remove(&t);
            self.transfer_failures += 1;
            self.give_up_transfer(t, ctx);
            return;
        }
        self.transfer_retries += 1;
        ctx.schedule_in(
            self.retry.backoff(n - 1),
            GridEvent::RetryTransfer { tag: t },
        );
    }

    /// The retry budget for tag `t` is exhausted: unwind per kind.
    fn give_up_transfer(&mut self, t: u64, ctx: &mut Ctx<'_, GridEvent>) {
        let (kind, a, b) = untag(t);
        match kind {
            KIND_STAGE => {
                // the waiting jobs will never see this input here:
                // resubmit them so the broker can place them somewhere
                // the file is still reachable from
                if let Some(waiters) = self.inflight_fetch.remove(&(a, b as usize)) {
                    for job in waiters {
                        self.requeue_pending(job, true, ctx);
                    }
                }
            }
            // a lost push replica is only a missed optimization
            KIND_PUSH => {}
            KIND_AGENT => {
                // free the agent's shipment slot so the remaining
                // subscribers still get served
                self.agent_failed += 1;
                let starts = self
                    .agent
                    .as_mut()
                    .expect("agent transfer without agent")
                    .on_transfer_done();
                self.start_agent_transfers(starts, ctx);
            }
            other => panic!("unknown flow tag kind {other}"),
        }
    }

    /// The one way out of `pending` before a job finishes: releases its
    /// pins, withdraws it from the fetch of every input it still waits for
    /// (the fetch runs on, see [`GridModel::on_stage_arrived`]), and
    /// resubmits it through the broker, keeping its original submission
    /// time — at once, or, `later` (an input was abandoned), with the next
    /// deferred sweep, so a zero retry budget cannot re-place it at the
    /// same instant forever. No-op if `job` is not pending.
    fn requeue_pending(&mut self, job: u64, later: bool, ctx: &mut Ctx<'_, GridEvent>) {
        let Some(pj) = self.retire(job) else {
            return;
        };
        for f in &pj.spec.inputs {
            if let Some(waiters) = self.inflight_fetch.get_mut(&(f.0, pj.site.0)) {
                waiters.retain(|&w| w != job);
            }
        }
        self.jobs_requeued += 1;
        if later {
            self.deferred.push_back(pj.spec);
            self.schedule_deferred_retry(ctx);
        } else {
            ctx.schedule_in(0.0, GridEvent::Resubmit(pj.spec));
        }
    }

    /// Takes `job` out of `pending` and releases the pins on its staged
    /// inputs.
    fn retire(&mut self, job: u64) -> Option<PendingJob> {
        let pj = self.pmap.unbind(job).and_then(|s| self.pending.remove(s))?;
        for f in &pj.pinned {
            self.sites[pj.site.0].disk.unpin(*f);
        }
        Some(pj)
    }

    /// The backoff for tag `t` elapsed: re-resolve a source (topology or
    /// replica placement may have changed) and try again.
    fn on_transfer_retry(&mut self, t: u64, ctx: &mut Ctx<'_, GridEvent>) {
        let (kind, a, b) = untag(t);
        let now = ctx.now();
        match kind {
            KIND_STAGE => {
                let file = FileId(a);
                let site = SiteId(b as usize);
                let key = (file.0, site.0);
                if self.inflight_fetch.get(&key).is_none_or(Vec::is_empty) {
                    // every waiter was requeued meanwhile: stop the fetch
                    self.inflight_fetch.remove(&key);
                    self.retry_attempts.remove(&t);
                    return;
                }
                if self.sites[site.0].disk.has(file) {
                    // a push/agent shipment landed the file while this
                    // fetch was backing off: the stage is already done
                    self.retry_attempts.remove(&t);
                    self.on_stage_arrived(file, site, 0.0, now, ctx);
                    return;
                }
                let Some(src) = self
                    .catalog
                    .best_source(file, |holder| self.latency_between(holder, site))
                else {
                    self.on_transfer_failed(t, ctx);
                    return;
                };
                self.fetch(file, src, site, ctx);
            }
            KIND_PUSH => {
                let file = FileId(a);
                let target = SiteId(b as usize);
                if self.sites[target.0].disk.has(file) {
                    self.retry_attempts.remove(&t);
                    return;
                }
                let Some(src) = self
                    .catalog
                    .best_source(file, |holder| self.latency_between(holder, target))
                else {
                    self.on_transfer_failed(t, ctx);
                    return;
                };
                let size = self.catalog.size(file);
                let src_node = self.sites[src.0].node;
                let dst_node = self.sites[target.0].node;
                self.start_or_retry(src_node, dst_node, size, t, ctx);
            }
            KIND_AGENT => {
                let src = self
                    .production
                    .as_ref()
                    .expect("agent transfer without production")
                    .site;
                let size = self.catalog.size(FileId(a));
                let src_node = self.sites[src.0].node;
                let dst_node = self.sites[b as usize].node;
                self.start_or_retry(src_node, dst_node, size, t, ctx);
            }
            other => panic!("unknown flow tag kind {other}"),
        }
    }

    /// Applies one injected fault.
    fn on_fault(&mut self, kind: FaultKind, ctx: &mut Ctx<'_, GridEvent>) {
        match kind {
            FaultKind::Link(lf) => {
                let outcome = self.net.apply_fault(lf, &mut ctx.map(GridEvent::Net));
                // aborted flows come back sorted by flow id, so the retry
                // schedule is deterministic
                for ab in outcome.aborted {
                    self.on_transfer_failed(ab.tag, ctx);
                }
            }
            FaultKind::SiteCrash(s) => {
                if !self.site_up[s.0] {
                    return;
                }
                self.site_up[s.0] = false;
                self.site_faults += 1;
                // running and queued jobs are lost; their records never
                // formed, so resubmission keeps the original submit time
                // and the outage shows up in makespan
                let lost = self.sites[s.0].cpu.crash(ctx.now());
                for job in lost {
                    self.requeue_pending(job, false, ctx);
                }
            }
            FaultKind::SiteRecover(s) => {
                self.site_up[s.0] = true;
                self.schedule_deferred_retry(ctx);
            }
        }
    }

    fn begin_staging(&mut self, spec: JobSpec, site: SiteId, ctx: &mut Ctx<'_, GridEvent>) {
        // stage inputs
        let now = ctx.now();
        let mut missing = 0usize;
        let mut pinned = Vec::new();
        for &f in &spec.inputs {
            if self.sites[site.0].disk.has(f) {
                self.sites[site.0].disk.touch(f, now);
                self.sites[site.0].disk.pin(f);
                pinned.push(f);
                continue;
            }
            missing += 1;
            let src = self
                .catalog
                .best_source(f, |holder| self.latency_between(holder, site))
                .unwrap_or_else(|| panic!("file {f:?} has no holder"));
            let src_node = self.sites[src.0].node;
            let size = self.catalog.size(f);
            // join an in-flight fetch of the same file to this site, or
            // start one — replica managers deduplicate concurrent requests
            if let Some(waiters) = self.inflight_fetch.get_mut(&(f.0, site.0)) {
                waiters.push(spec.id.0);
                self.sites[src.0].disk.touch(f, now);
            } else {
                self.inflight_fetch.insert((f.0, site.0), vec![spec.id.0]);
                self.fetch(f, src, site, ctx);
            }
            // push replication bookkeeping at the holding site
            if let ReplicationPolicy::Push { threshold } = self.replication {
                let catalog = &self.catalog;
                if let Some(target) =
                    self.push_tracker
                        .record_remote_access(f, site, threshold, |s| catalog.holds(f, s))
                {
                    if target != site {
                        let tnode = self.sites[target.0].node;
                        self.start_or_retry(
                            src_node,
                            tnode,
                            size,
                            tag(KIND_PUSH, f.0, target.0 as u64),
                            ctx,
                        );
                    }
                }
            }
        }
        let id = spec.id.0;
        let slot = self.pending.insert(PendingJob {
            site,
            missing,
            staged_bytes: 0.0,
            pinned,
            spec,
            staged: None,
        });
        self.pmap.bind(id, slot);
        if missing == 0 {
            self.start_execution(id, now, ctx);
        }
    }

    /// Starts fetching `file` from holder `src` to `site` for a new (or
    /// retried) `inflight_fetch` entry: touches the source copy, then joins
    /// or starts its tape recall if that copy is archived, or else starts
    /// the WAN stage transfer.
    fn fetch(&mut self, file: FileId, src: SiteId, site: SiteId, ctx: &mut Ctx<'_, GridEvent>) {
        let size = self.catalog.size(file);
        self.sites[src.0].disk.touch(file, ctx.now());
        let archived = self.on_tape.contains(&(file.0, src.0)) && !self.sites[src.0].disk.has(file);
        if !archived {
            let src_node = self.sites[src.0].node;
            let dst_node = self.sites[site.0].node;
            let t = tag(KIND_STAGE, file.0, site.0 as u64);
            self.start_or_retry(src_node, dst_node, size, t, ctx);
            return;
        }
        // the source copy lives on tape: recall it to disk first, then the
        // WAN transfer(s) start on completion
        let recall = self.inflight_recall.entry((file.0, src.0)).or_default();
        recall.push(site.0);
        if recall.len() == 1 {
            self.tape_recalls += 1;
            let sidx = src.0;
            self.sites[sidx]
                .tape
                .as_mut()
                .expect("archived file at a site without tape")
                .recall(
                    file.0,
                    size,
                    &mut ctx.map(move |ev| GridEvent::Tape { site: sidx, ev }),
                );
        }
    }

    /// Every input of pending job `job` is at its site: hand it to the CPU
    /// farm. The pending entry lives on (with staging accounting and pins)
    /// until the CPU completion builds the job record.
    fn start_execution(&mut self, job: u64, staged: SimTime, ctx: &mut Ctx<'_, GridEvent>) {
        let pj = self
            .pmap
            .get(job)
            .and_then(|s| self.pending.get_mut(s))
            .expect("started job is not pending");
        pj.staged = Some(staged);
        let site = pj.site.0;
        let id = pj.spec.id;
        let work = pj.spec.work;
        let owner = pj.spec.owner;
        if !self.site_up[site] {
            // the chosen site crashed while inputs were staging: send the
            // job back through the broker
            self.requeue_pending(job, false, ctx);
            return;
        }
        self.sites[site].cpu.submit(
            id,
            work,
            owner,
            &mut ctx.map(move |ev| GridEvent::Cpu { site, ev }),
        );
    }

    fn on_flow_done(
        &mut self,
        t: u64,
        bytes: f64,
        finished: SimTime,
        ctx: &mut Ctx<'_, GridEvent>,
    ) {
        // a completion closes the tag's retry record; surface how many
        // attempts the transfer needed
        if let Some(n) = self.retry_attempts.remove(&t) {
            if let Some(mon) = self.monitor.as_mut() {
                mon.reg.observe("grid.transfer.attempts", f64::from(n + 1));
            }
        }
        let (kind, a, b) = untag(t);
        match kind {
            KIND_STAGE => {
                self.wan_bytes += bytes;
                self.on_stage_arrived(FileId(a), SiteId(b as usize), bytes, finished, ctx);
            }
            KIND_PUSH | KIND_AGENT => {
                let file = FileId(a);
                let site = SiteId(b as usize);
                self.wan_bytes += bytes;
                // shipments store regardless of pull policy
                if !self.sites[site.0].disk.has(file) {
                    self.evict_and_store(site, self.catalog.size(file), finished, |_| file);
                }
                if kind == KIND_AGENT {
                    self.agent_log.push((file.0, site.0, finished.seconds()));
                    let starts = self
                        .agent
                        .as_mut()
                        .expect("agent transfer without agent")
                        .on_transfer_done();
                    self.start_agent_transfers(starts, ctx);
                }
            }
            other => panic!("unknown flow tag kind {other}"),
        }
    }

    fn start_agent_transfers(
        &mut self,
        starts: Vec<(FileId, SiteId)>,
        ctx: &mut Ctx<'_, GridEvent>,
    ) {
        for (file, dst) in starts {
            let src = self
                .production
                .as_ref()
                .expect("agent without production")
                .site;
            let size = self.catalog.size(file);
            let src_node = self.sites[src.0].node;
            let dst_node = self.sites[dst.0].node;
            self.start_or_retry(
                src_node,
                dst_node,
                size,
                tag(KIND_AGENT, file.0, dst.0 as u64),
                ctx,
            );
        }
    }

    /// Bytes of `file` became available at `site`: release the waiting
    /// jobs (shared staging accounting) and store a replica per policy.
    /// Waiters are pending jobs at `site` (a requeue withdraws its id), so
    /// a fetch whose waiters all left only stores the replica.
    fn on_stage_arrived(
        &mut self,
        file: FileId,
        site: SiteId,
        bytes: f64,
        finished: SimTime,
        ctx: &mut Ctx<'_, GridEvent>,
    ) {
        let waiters = self
            .inflight_fetch
            .remove(&(file.0, site.0))
            .expect("stage completion without a fetch");
        // store once per arrival, then pin per waiting job
        let stored = self.replication.is_pull() && self.try_store_replica(file, site, finished);
        let share = bytes / waiters.len() as f64;
        for job in waiters {
            let pj = self
                .pmap
                .get(job)
                .and_then(|s| self.pending.get_mut(s))
                .expect("waiter is not pending");
            pj.staged_bytes += share;
            pj.missing -= 1;
            if stored {
                self.sites[site.0].disk.pin(file);
                pj.pinned.push(file);
            }
            if pj.missing == 0 {
                self.start_execution(job, finished, ctx);
            }
        }
    }

    /// A tape recall finished: cache the file on the holder's disk and
    /// start the WAN transfers that were waiting on it.
    fn on_recall_done(&mut self, file: FileId, holder: SiteId, ctx: &mut Ctx<'_, GridEvent>) {
        let size = self.catalog.size(file);
        let now = ctx.now();
        // disk-cache the recalled copy (pinned: it is the tape master's
        // online image; evicting it would force re-recalls mid-run)
        if !self.sites[holder.0].disk.has(file)
            && self.evict_and_store(holder, size, now, |_| file).is_some()
        {
            self.sites[holder.0].disk.pin(file);
        }
        let dsts = self
            .inflight_recall
            .remove(&(file.0, holder.0))
            .expect("recall completion without waiters");
        let src_node = self.sites[holder.0].node;
        for dst in dsts {
            if dst == holder.0 {
                // the job runs at the holding site: the recall itself was
                // the staging — no WAN transfer, no WAN accounting
                self.on_stage_arrived(file, holder, 0.0, now, ctx);
                continue;
            }
            let dst_node = self.sites[dst].node;
            self.start_or_retry(
                src_node,
                dst_node,
                size,
                tag(KIND_STAGE, file.0, dst as u64),
                ctx,
            );
        }
    }

    fn on_cpu_done(
        &mut self,
        site: usize,
        job: JobId,
        started: SimTime,
        ctx: &mut Ctx<'_, GridEvent>,
    ) {
        let pj = self.retire(job.0).expect("finished job was not pending");
        let staged = pj.staged.expect("finished job has no staged time");
        let spec = pj.spec;
        let finished = ctx.now();
        let cost = self.sites[site].cost_of(spec.work);
        let deadline_met = spec.deadline.is_none_or(|d| finished - spec.submitted <= d);
        // outputs land on the local disk (best effort: evicted-on-demand)
        if spec.output_bytes > 0.0 {
            let (bytes, at) = (spec.output_bytes, SiteId(site));
            self.evict_and_store(at, bytes, finished, |c| c.register(bytes, at));
        }
        self.records.push(JobRecord {
            id: spec.id,
            owner: spec.owner,
            site: SiteId(site),
            submitted: spec.submitted,
            staged,
            started,
            finished,
            staged_bytes: pj.staged_bytes,
            cost,
            deadline_met,
        });
    }

    fn on_produce(&mut self, ctx: &mut Ctx<'_, GridEvent>) {
        let (site, size, more) = {
            let p = self
                .production
                .as_mut()
                .expect("produce without production");
            let size = p.size.sample_at_least(&mut self.rng, 1.0);
            let more = p.limit.is_none_or(|l| self.produced + 1 < l);
            (p.site, size, more)
        };
        let f = self.catalog.register(size, site);
        self.produced_log.push((f.0, ctx.now().seconds()));
        // origin copy: evict unpinned replicas if needed, then pin. If
        // production outran storage, the dataset exists in the catalog
        // but only virtually; count it as a loss by keeping it unpinned
        // nowhere. Real MONARC runs size T0 storage to avoid this;
        // experiments should too.
        if self.evict_and_store(site, size, ctx.now(), |_| f).is_some() {
            self.sites[site.0].disk.pin(f);
        }
        self.produced += 1;
        if let Some(agent) = self.agent.as_mut() {
            let starts = agent.on_produced(f);
            self.start_agent_transfers(starts, ctx);
        }
        if more {
            let dt = {
                let p = self.production.as_mut().expect("production vanished");
                p.interarrival.sample_at_least(&mut self.rng, 1e-9)
            };
            ctx.schedule_in(dt, GridEvent::Produce);
        }
    }
}

impl Model for GridModel {
    type Event = GridEvent;

    fn handle(&mut self, event: GridEvent, ctx: &mut Ctx<'_, GridEvent>) {
        match event {
            GridEvent::Init => {
                let faults = std::mem::take(&mut self.faults);
                for ev in faults.events() {
                    ctx.schedule_at(SimTime::new(ev.at), GridEvent::Fault(ev.kind));
                }
                for (i, a) in self.activities.iter_mut().enumerate() {
                    a.prime(&mut ctx.map(move |_| GridEvent::Activity { idx: i }));
                }
                if self.production.is_some() {
                    ctx.schedule_in(0.0, GridEvent::Produce);
                }
            }
            GridEvent::Activity { idx } => {
                let id = self.next_job_id;
                self.next_job_id += 1;
                let spec = self.activities[idx].handle(
                    ActivityEvent::NextJob,
                    id,
                    &mut ctx.map(move |_| GridEvent::Activity { idx }),
                );
                self.submit_job(spec, ctx);
            }
            GridEvent::Submit(mut spec) => {
                // stamp the true submission time: a replayed record's
                // spec was built before the event was delivered
                spec.submitted = ctx.now();
                self.submit_job(spec, ctx);
            }
            GridEvent::Cpu { site, ev } => {
                if let Some(d) = self.sites[site]
                    .cpu
                    .handle(ev, &mut ctx.map(move |ev| GridEvent::Cpu { site, ev }))
                {
                    self.on_cpu_done(site, d.job, d.started, ctx);
                }
            }
            GridEvent::Net(fe) => {
                let mut dones = std::mem::take(&mut self.net_done);
                self.net
                    .handle_into(fe, &mut ctx.map(GridEvent::Net), &mut dones);
                for d in dones.drain(..) {
                    self.on_flow_done(d.tag, d.bytes, d.finished, ctx);
                }
                self.net_done = dones;
            }
            GridEvent::Tape { site, ev } => {
                let file = self.sites[site]
                    .tape
                    .as_mut()
                    .expect("tape event at site without tape")
                    .handle(ev, &mut ctx.map(move |ev| GridEvent::Tape { site, ev }));
                self.on_recall_done(FileId(file), SiteId(site), ctx);
            }
            GridEvent::Db { site, ev } => {
                let job = self.sites[site]
                    .db
                    .as_mut()
                    .expect("db event at site without db")
                    .handle(ev, &mut ctx.map(move |ev| GridEvent::Db { site, ev }));
                let (spec, exec_site) = self
                    .awaiting_db
                    .remove(&job)
                    .expect("db answer for unknown job");
                self.begin_staging(spec, exec_site, ctx);
            }
            GridEvent::Produce => self.on_produce(ctx),
            GridEvent::Fault(kind) => self.on_fault(kind, ctx),
            GridEvent::TransferFailed { tag } => self.on_transfer_failed(tag, ctx),
            GridEvent::RetryTransfer { tag } => self.on_transfer_retry(tag, ctx),
            GridEvent::RetryDeferred => {
                self.deferred_retry_pending = false;
                let batch: Vec<JobSpec> = self.deferred.drain(..).collect();
                for spec in batch {
                    self.submit_job(spec, ctx);
                }
            }
            GridEvent::Resubmit(spec) => self.submit_job(spec, ctx),
        }
        self.record_site_state(ctx.now());
    }

    fn trace_kind(&self, event: &GridEvent) -> SpanKind {
        match event {
            GridEvent::Init => SpanKind::new("grid.init"),
            GridEvent::Activity { idx } => SpanKind::tagged("grid.activity", *idx as u64),
            GridEvent::Cpu { .. } => SpanKind::new("grid.cpu"),
            GridEvent::Submit(spec) => SpanKind::tagged("grid.submit", spec.id.0),
            GridEvent::Net(fe) => fe.span_kind(),
            GridEvent::Tape { .. } => SpanKind::new("grid.tape"),
            GridEvent::Db { .. } => SpanKind::new("grid.db"),
            GridEvent::Produce => SpanKind::new("grid.produce"),
            GridEvent::Fault(_) => SpanKind::new("grid.fault"),
            GridEvent::RetryTransfer { tag } => SpanKind::tagged("grid.retry_transfer", *tag),
            GridEvent::TransferFailed { tag } => SpanKind::tagged("grid.transfer_failed", *tag),
            GridEvent::RetryDeferred => SpanKind::new("grid.retry_deferred"),
            GridEvent::Resubmit(spec) => SpanKind::tagged("grid.resubmit", spec.id.0),
        }
    }

    fn trace_track(&self, event: &GridEvent) -> u32 {
        // Site-local events trace onto that site's track; grid-wide events
        // (brokering, network, production) share track 0.
        match event {
            GridEvent::Cpu { site, .. }
            | GridEvent::Tape { site, .. }
            | GridEvent::Db { site, .. } => *site as u32,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::{flat_grid, tiered_grid, SiteSpec};
    use crate::scheduler::{DataAware, LeastLoaded};
    use lsds_net::mbps;
    use lsds_stats::Summary;

    fn flat(n: usize) -> BuiltGrid {
        flat_grid(vec![SiteSpec::default(); n], mbps(800.0), 0.005)
    }

    fn compute_only(seed: u64) -> GridConfig {
        GridConfig {
            grid: flat(4),
            policy: Box::new(LeastLoaded),
            replication: ReplicationPolicy::None,
            activities: vec![
                Activity::compute(0, 2.0, Dist::exp_mean(30.0), SimRng::new(seed)).with_limit(50),
            ],
            production: None,
            agent: None,
            eligible: None,
            initial_files: vec![],
            seed,
        }
    }

    fn run_compute_only(seed: u64) -> GridReport {
        let mut sim = GridModel::build(compute_only(seed));
        sim.run_until(SimTime::new(100_000.0));
        sim.model().report()
    }

    /// A report shares the model's records copy-on-write: one taken
    /// mid-run keeps what it saw while the model runs on, and taking it
    /// changes nothing in the run. Debug text compares every field, and
    /// its `f64`s round-trip, so equal text means equal bits.
    #[test]
    fn mid_run_report_is_a_snapshot() {
        let mut sim = GridModel::build(compute_only(3));
        sim.run_until(SimTime::new(60.0));
        let early = sim.model().report();
        let seen = format!("{:?}", early.records);
        let done = early.records.len();
        assert!((1..50).contains(&done), "{done} finished at t = 60");
        sim.run_until(SimTime::new(100_000.0));
        let last = sim.model().report();
        assert_eq!(format!("{:?}", early.records), seen);
        assert_eq!(last.records.len(), 50);
        assert_eq!(format!("{last:?}"), format!("{:?}", run_compute_only(3)));
    }

    #[test]
    fn compute_only_jobs_complete() {
        let rep = run_compute_only(1);
        assert_eq!(rep.records.len(), 50);
        assert_eq!(rep.rejected, 0);
        assert_eq!(rep.wan_bytes, 0.0);
        assert!(rep.mean_makespan > 0.0);
        let (mut makespan, mut stage) = (Summary::new(), Summary::new());
        for r in &rep.records {
            assert!(r.finished >= r.started);
            assert!(r.started >= r.staged);
            assert!(r.staged >= r.submitted);
            makespan.add(r.makespan());
            stage.add(r.stage_time());
        }
        // the report's running means are `Summary`'s, bit for bit
        assert_eq!(rep.mean_makespan.to_bits(), makespan.mean().to_bits());
        assert_eq!(rep.mean_stage_time.to_bits(), stage.mean().to_bits());
    }

    #[test]
    fn deterministic_repetition() {
        let a = run_compute_only(7);
        let b = run_compute_only(7);
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.mean_makespan, b.mean_makespan);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.finished, y.finished);
            assert_eq!(x.site, y.site);
        }
    }

    #[test]
    fn different_seed_different_results() {
        let a = run_compute_only(7);
        let b = run_compute_only(8);
        assert_ne!(a.mean_makespan, b.mean_makespan);
    }

    fn data_cfg(policy: ReplicationPolicy, seed: u64) -> GridConfig {
        // 10 files of 1 GB at site 0; analysis jobs run data-aware
        let grid = flat(4);
        let initial_files: Vec<(f64, SiteId)> = (0..10).map(|_| (1.0e9, SiteId(0))).collect();
        GridConfig {
            grid,
            policy: Box::new(LeastLoaded),
            replication: policy,
            activities: vec![Activity::analysis(
                0,
                5.0,
                Dist::exp_mean(20.0),
                2,
                10,
                1.0,
                SimRng::new(seed),
            )
            .with_limit(60)],
            production: None,
            agent: None,
            eligible: None,
            initial_files,
            seed,
        }
    }

    #[test]
    fn staging_moves_bytes_and_pull_creates_replicas() {
        let mut sim = GridModel::build(data_cfg(ReplicationPolicy::PullLru, 3));
        sim.run_until(SimTime::new(1.0e6));
        let m = sim.model();
        let rep = m.report();
        assert_eq!(rep.records.len(), 60);
        assert!(rep.wan_bytes > 0.0, "some staging must have happened");
        // pull replication: at least one file now has more than one holder
        let replicated = (0..10).any(|f| m.catalog().holders(FileId(f)).count() > 1);
        assert!(replicated, "pull policy must create replicas");
        assert!(rep.mean_stage_time > 0.0);
    }

    #[test]
    fn no_replication_streams_every_time() {
        let mut sim = GridModel::build(data_cfg(ReplicationPolicy::None, 3));
        sim.run_until(SimTime::new(1.0e6));
        let m = sim.model();
        assert_eq!(m.report().records.len(), 60);
        for f in 0..10 {
            assert_eq!(
                m.catalog().holders(FileId(f)).count(),
                1,
                "no replicas under ReplicationPolicy::None"
            );
        }
    }

    #[test]
    fn replication_reduces_wan_traffic() {
        // pin execution to one remote site so replica reuse is guaranteed
        // (a load balancer would otherwise scatter jobs away from fresh
        // replicas — which is itself the point of the E7/E8 experiments)
        let remote_only = Some(vec![false, true, false, false]);
        let mut cfg_none = data_cfg(ReplicationPolicy::None, 9);
        cfg_none.eligible = remote_only.clone();
        let mut cfg_lru = data_cfg(ReplicationPolicy::PullLru, 9);
        cfg_lru.eligible = remote_only;
        let mut none = GridModel::build(cfg_none);
        none.run_until(SimTime::new(1.0e6));
        let mut lru = GridModel::build(cfg_lru);
        lru.run_until(SimTime::new(1.0e6));
        let wn = none.model().report().wan_bytes;
        let wl = lru.model().report().wan_bytes;
        assert!(wl < wn, "replication must save WAN bytes: {wl} vs {wn}");
        // with 10 files of 1 GB, pull staging settles at ≤ 10 GB
        assert!(wl <= 10.0e9 + 1.0, "pull stages each file once: {wl}");
    }

    #[test]
    fn push_replication_triggers() {
        // jobs may not run at the origin, so every access is remote and
        // popularity accumulates at the holding site
        let mut cfg = data_cfg(ReplicationPolicy::Push { threshold: 3 }, 5);
        cfg.policy = Box::new(DataAware);
        cfg.eligible = Some(vec![false, true, true, true]);
        let mut sim = GridModel::build(cfg);
        sim.run_until(SimTime::new(1.0e6));
        let rep = sim.model().report();
        assert_eq!(rep.records.len(), 60);
        assert!(rep.pushes > 0, "popular files must be pushed");
    }

    #[test]
    fn production_with_agent_ships_to_tier1() {
        let grid = tiered_grid(
            SiteSpec {
                cores: 32,
                disk: 1.0e15,
                ..SiteSpec::default()
            },
            3,
            SiteSpec::default(),
            0,
            SiteSpec::default(),
            mbps(2500.0),
            mbps(622.0),
            0.02,
        );
        let cfg = GridConfig {
            grid,
            policy: Box::new(LeastLoaded),
            replication: ReplicationPolicy::None,
            activities: vec![],
            production: Some(Production {
                site: SiteId(0),
                interarrival: Dist::constant(10.0),
                size: Dist::constant(1.0e9),
                limit: Some(20),
            }),
            agent: Some(4),
            eligible: None,
            initial_files: vec![],
            seed: 11,
        };
        let mut sim = GridModel::build(cfg);
        sim.run_until(SimTime::new(1.0e5));
        let m = sim.model();
        assert_eq!(m.produced(), 20);
        // every dataset shipped to all 3 subscribers
        assert_eq!(m.agent().unwrap().shipped(), 60);
        // tier-1 disks hold replicas
        for s in 1..=3 {
            assert!(m.site(SiteId(s)).disk.file_count() > 0);
        }
    }

    #[test]
    fn economy_policy_rejects_infeasible() {
        use crate::scheduler::{Economy, EconomyGoal};
        let grid = flat(2);
        let cfg = GridConfig {
            grid,
            policy: Box::new(Economy {
                goal: EconomyGoal::CostMin,
                backlog_work_guess: 30.0,
            }),
            replication: ReplicationPolicy::None,
            activities: vec![
                Activity::compute(0, 1.0, Dist::constant(100.0), SimRng::new(2))
                    // deadline so tight nothing can meet it once queues form
                    .with_economy(0.001, 1000.0)
                    .with_limit(30),
            ],
            production: None,
            agent: None,
            eligible: None,
            initial_files: vec![],
            seed: 2,
        };
        let mut sim = GridModel::build(cfg);
        sim.run_until(SimTime::new(1.0e6));
        let rep = sim.model().report();
        assert_eq!(rep.rejected, 30, "every job infeasible");
        assert!(rep.records.is_empty());
    }

    #[test]
    fn costs_charged_per_site_price() {
        let mut specs = vec![SiteSpec::default(); 2];
        specs[0].price = 2.0;
        specs[1].price = 2.0;
        let grid = flat_grid(specs, mbps(800.0), 0.005);
        let cfg = GridConfig {
            grid,
            policy: Box::new(LeastLoaded),
            replication: ReplicationPolicy::None,
            activities: vec![
                Activity::compute(0, 10.0, Dist::constant(50.0), SimRng::new(4)).with_limit(10),
            ],
            production: None,
            agent: None,
            eligible: None,
            initial_files: vec![],
            seed: 4,
        };
        let mut sim = GridModel::build(cfg);
        sim.run_until(SimTime::new(1.0e6));
        let rep = sim.model().report();
        assert_eq!(rep.records.len(), 10);
        assert!((rep.total_cost - 10.0 * 50.0 * 2.0).abs() < 1e-6);
    }

    #[test]
    fn tag_roundtrip() {
        let t = tag(KIND_AGENT, 12345, 678);
        assert_eq!(untag(t), (KIND_AGENT, 12345, 678));
    }

    fn tape_cfg(seed: u64) -> GridConfig {
        // site 0: archive (tape, no compute); site 1: compute
        let mut grid = flat(2);
        grid.sites[0].cpu = crate::cpu::CpuFarm::new(
            1,
            1e-6,
            crate::cpu::Sharing::Space,
            crate::cpu::Discipline::Fifo,
        );
        grid.sites[0].tape = Some(crate::storage::MassStorage::new(1, 60.0, 100.0e6));
        GridConfig {
            grid,
            policy: Box::new(LeastLoaded),
            replication: ReplicationPolicy::None,
            activities: vec![Activity::analysis(
                0,
                100.0,
                Dist::exp_mean(10.0),
                1,
                4,
                0.8,
                SimRng::new(seed),
            )
            .with_limit(12)],
            production: None,
            agent: None,
            eligible: None,
            initial_files: vec![],
            seed,
        }
    }

    #[test]
    fn archived_files_are_recalled_before_staging() {
        let model = GridModel::new(tape_cfg(13));
        let mut sim = lsds_core::EventDriven::new(model);
        // register 4 archived datasets on site 0's tape
        for _ in 0..4 {
            sim.model_mut().archive_file(2.0e9, SiteId(0));
        }
        sim.schedule(SimTime::ZERO, GridEvent::Init);
        sim.run_until(SimTime::new(1.0e7));
        let m = sim.model();
        let rep = m.report();
        assert_eq!(rep.records.len(), 12);
        assert!(rep.tape_recalls > 0, "archived inputs must recall");
        assert!(rep.tape_recalls <= 4, "each file recalled at most once");
        // recalled copies are disk-cached at the archive site
        let cached = (0..4)
            .filter(|&f| m.site(SiteId(0)).disk.has(FileId(f)))
            .count();
        assert_eq!(cached as u64, rep.tape_recalls);
        // tape latency shows up in the first access of each file
        // (mount 60 s + read 20 s); cached accesses stage fast
        let max_stage = rep
            .records
            .iter()
            .map(|r| r.stage_time())
            .fold(0.0f64, f64::max);
        assert!(max_stage >= 80.0, "max stage {max_stage}");
    }

    #[test]
    #[should_panic]
    fn archive_without_tape_panics() {
        let mut model = GridModel::new(data_cfg(ReplicationPolicy::None, 1));
        model.archive_file(1.0e9, SiteId(0));
    }

    #[test]
    fn db_metadata_queries_gate_staging() {
        let mut grid = flat(2);
        // both sites answer metadata queries in 2 s
        for site in &mut grid.sites {
            site.db = Some(crate::storage::DbServer::new(1, 2.0));
        }
        let cfg = GridConfig {
            grid,
            policy: Box::new(LeastLoaded),
            replication: ReplicationPolicy::None,
            activities: vec![
                Activity::compute(0, 50.0, Dist::constant(5.0), SimRng::new(3)).with_limit(10),
            ],
            production: None,
            agent: None,
            eligible: None,
            initial_files: vec![],
            seed: 3,
        };
        let mut sim = GridModel::build(cfg);
        sim.run_until(SimTime::new(1.0e6));
        let rep = sim.model().report();
        assert_eq!(rep.records.len(), 10);
        assert_eq!(rep.db_queries, 10);
        // every job waited ≥ 2 s on its metadata query before staging
        for r in &rep.records {
            assert!(
                r.stage_time() >= 2.0 - 1e-9,
                "stage {} missing db latency",
                r.stage_time()
            );
        }
    }

    #[test]
    fn sites_without_db_skip_queries() {
        let rep = run_compute_only(6);
        assert_eq!(rep.db_queries, 0);
        assert_eq!(rep.tape_recalls, 0);
    }

    #[test]
    fn monitored_grid_run_is_identical_and_exports_series() {
        let run = |monitored: bool| {
            let mut sim = GridModel::build(data_cfg(ReplicationPolicy::PullLru, 3));
            if monitored {
                sim.model_mut().enable_monitor();
            }
            sim.run_until(SimTime::new(1.0e6));
            sim
        };
        let mon = run(true);
        let plain = run(false);
        let rm = mon.model().report();
        let rp = plain.model().report();
        assert_eq!(rm.records.len(), rp.records.len());
        for (a, b) in rm.records.iter().zip(&rp.records) {
            assert_eq!(a.finished, b.finished, "monitoring perturbed the run");
            assert_eq!(a.site, b.site);
        }

        let mut reg = Registry::new();
        mon.model().export_metrics(&mut reg);
        assert_eq!(reg.counter("grid.jobs.completed"), 60);
        let cpu = reg.series("grid.site.0.cpu_running").unwrap();
        assert!(cpu.max() >= 1.0, "site 0 must have run something");
        assert!(reg.series("grid.site.0.disk_used").is_some());
        assert_eq!(reg.summary("grid.job.makespan").unwrap().count(), 60);
        // network monitoring rides along
        assert!(reg.counter("net.transfers_completed") > 0);
        assert!(reg.summary("net.transfer_latency").is_some());
    }

    /// A data run with the file server's uplink cut mid-run. Staging from
    /// site 0 has exactly one path in the star, so affected transfers
    /// abort and must survive on retry/backoff.
    fn faulty_data_run(seed: u64, faults: FaultSchedule) -> GridReport {
        let mut sim = GridModel::build(data_cfg(ReplicationPolicy::PullLru, seed));
        sim.model_mut().set_faults(faults);
        sim.run_until(SimTime::new(1.0e6));
        sim.model().report()
    }

    #[test]
    fn link_outage_is_survived_via_retries() {
        use lsds_net::LinkId;
        let mut faults = FaultSchedule::new();
        // LinkId(0) is site0 -> hub: the only way out of the file server
        faults.link_outage(LinkId(0), 5.0, 120.0);
        let rep = faulty_data_run(3, faults);
        assert_eq!(rep.records.len(), 60, "all jobs complete after repair");
        assert!(rep.transfer_retries > 0, "outage must force retries");
        assert_eq!(rep.transfer_failures, 0, "retry budget suffices");
        // the outage stalls staging, so jobs take longer than fault-free
        let clean = faulty_data_run(3, FaultSchedule::new());
        assert!(rep.mean_makespan > clean.mean_makespan);
    }

    #[test]
    fn fault_free_schedule_is_bitwise_noop() {
        let a = faulty_data_run(3, FaultSchedule::new());
        let b = {
            let mut sim = GridModel::build(data_cfg(ReplicationPolicy::PullLru, 3));
            sim.run_until(SimTime::new(1.0e6));
            sim.model().report()
        };
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(
                x.finished.seconds().to_bits(),
                y.finished.seconds().to_bits()
            );
        }
    }

    #[test]
    fn faulty_run_is_deterministic() {
        use lsds_net::LinkId;
        let run = || {
            let mut faults = FaultSchedule::new();
            faults
                .link_outage(LinkId(0), 5.0, 120.0)
                .site_outage(SiteId(2), 50.0, 300.0)
                .degrade(LinkId(2), 400.0, 100.0, 0.25);
            faulty_data_run(3, faults)
        };
        let a = run();
        let b = run();
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.transfer_retries, b.transfer_retries);
        assert_eq!(a.jobs_requeued, b.jobs_requeued);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(
                x.finished.seconds().to_bits(),
                y.finished.seconds().to_bits()
            );
            assert_eq!(x.staged_bytes.to_bits(), y.staged_bytes.to_bits());
            assert_eq!(x.site, y.site);
        }
    }

    #[test]
    fn site_crash_requeues_jobs_elsewhere() {
        let grid = flat(3);
        let cfg = GridConfig {
            grid,
            policy: Box::new(LeastLoaded),
            replication: ReplicationPolicy::None,
            activities: vec![
                Activity::compute(0, 2.0, Dist::exp_mean(50.0), SimRng::new(4)).with_limit(40),
            ],
            production: None,
            agent: None,
            eligible: None,
            initial_files: vec![],
            seed: 4,
        };
        let mut sim = GridModel::build(cfg);
        let mut faults = FaultSchedule::new();
        // crash site 1 in the thick of the workload, recover much later
        faults.site_outage(SiteId(1), 20.0, 5000.0);
        sim.model_mut().set_faults(faults);
        sim.run_until(SimTime::new(1.0e6));
        let m = sim.model();
        let rep = m.report();
        assert_eq!(rep.site_faults, 1);
        assert!(rep.jobs_requeued > 0, "crash must have caught jobs");
        assert_eq!(rep.records.len(), 40, "lost jobs finish elsewhere");
        assert!(m.site_is_up(SiteId(1)), "site recovered by run end");
        // requeued jobs kept their submission time, so the detour shows
        for r in &rep.records {
            assert!(r.finished > r.submitted);
        }
    }

    #[test]
    fn all_sites_down_defers_until_recovery() {
        let grid = flat(2);
        let cfg = GridConfig {
            grid,
            policy: Box::new(LeastLoaded),
            replication: ReplicationPolicy::None,
            activities: vec![
                Activity::compute(0, 1.0, Dist::constant(10.0), SimRng::new(5)).with_limit(10),
            ],
            production: None,
            agent: None,
            eligible: None,
            initial_files: vec![],
            seed: 5,
        };
        let mut sim = GridModel::build(cfg);
        let mut faults = FaultSchedule::new();
        faults
            .site_outage(SiteId(0), 0.0, 500.0)
            .site_outage(SiteId(1), 0.0, 500.0);
        sim.model_mut().set_faults(faults);
        sim.run_until(SimTime::new(100.0));
        assert_eq!(sim.model().in_flight(), 10, "deferred jobs are in flight");
        // once the sites are back, each job is in flight or done, never
        // both, and an executing job counts once
        let mut executed = false;
        for t in 500..560 {
            sim.run_until(SimTime::new(f64::from(t)));
            let m = sim.model();
            executed |= (0..2).any(|s| m.site(SiteId(s)).cpu.running() > 0);
            assert_eq!(m.in_flight() + m.records().len(), 10, "t = {t}");
        }
        assert!(executed, "the sweep must catch jobs executing");
        sim.run_until(SimTime::new(1.0e6));
        let rep = sim.model().report();
        assert!(rep.jobs_deferred > 0, "no site up -> jobs deferred");
        assert_eq!(rep.rejected, 0, "deferral is not rejection");
        assert_eq!(rep.records.len(), 10, "deferred jobs run after recovery");
        // nothing could start before the sites came back
        for r in &rep.records {
            assert!(r.started.seconds() >= 500.0);
        }
    }
}
