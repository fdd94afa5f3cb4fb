//! `lhc_t0t1` — the paper's study, input to report: MONARC's LHC T0/T1
//! replication scenario, built by the benchmark through the public
//! `lsds-grid` API (a mirror of `Monarc::build_grid`, with 11 tier-1
//! centres). Production at T0 ships every dataset to every T1 through the
//! replication agent; analysis-job arrivals are replayed from a generated
//! MonALISA-style trace file by the product's trace-driven engine
//! (`TraceDriven`: one arrival is pending at a time, so the event list
//! holds only what the model itself scheduled); the T0 uplink suffers
//! periodic outages that abort shipments into the retry path; and the T1
//! disks hold two thirds of the production, so the last third of the
//! shipments evict.
//!
//! The whole stack runs, with `grid` dominant. It is the only workload
//! where storage is used both append-only and evicting, and the only one
//! on the trace-driven engine.

use super::{
    check_observed, drive, field, fields, named, traced, InputFile, Mode, Outcome, Size, Study,
    Trial,
};
use crate::product::{
    self, gbps, BuiltGrid, CpuFarm, DbServer, Discipline, FaultSchedule, FileId, GridConfig,
    GridEvent, GridModel, JobId, JobSpec, LeastLoaded, LinkId, MassStorage, NodeKind, Organization,
    Production, ReplicationPolicy, Sharing, SimTime, Site, SiteId, StorageElement, Topology,
};
use crate::shim::{TimedModel, TimedQueue, TimedSource};
use crate::util::{outcome, Rng};
use std::path::Path;
use std::rc::Rc;

/// Scenario parameters — the fields of `Monarc` the study varies, plus the
/// T1 disk size. `scenario.txt` holds them one `name value` per line.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Tier-1 centres.
    pub n_t1: usize,
    /// Shared T0 egress capacity, Gbit/s.
    pub uplink_gbps: f64,
    /// Gateway→T1 link capacity, Gbit/s.
    pub t1_link_gbps: f64,
    /// Dataset size, GB.
    pub dataset_gb: f64,
    /// Seconds between produced datasets.
    pub production_interval: f64,
    /// Datasets to produce.
    pub datasets: u64,
    /// Datasets produced before the run and already at every T1.
    pub initial_datasets: usize,
    /// Cores per T1 farm.
    pub t1_cores: usize,
    /// T1 disk capacity, in datasets.
    pub t1_disk_datasets: f64,
    /// Consecutive datasets an analysis job reads (the one its trace
    /// record names and the ones produced just before it).
    pub datasets_per_job: u64,
    /// Master seed of the grid model.
    pub seed: u64,
}

impl Scenario {
    /// The scenario of a problem size.
    pub fn for_size(size: Size, seed: u64) -> Scenario {
        let datasets = match size {
            Size::Full => 1_600,
            Size::Smoke => 240,
        };
        let initial_datasets = 64;
        Scenario {
            n_t1: 11,
            uplink_gbps: 30.0,
            t1_link_gbps: 10.0,
            dataset_gb: 87.5,
            // 87.5 GB every 280 s = 2.5 Gbit/s of raw production; shipping
            // to 11 T1s offers 27.5 Gbit/s to the 30 Gbit/s uplink
            production_interval: 280.0,
            datasets,
            initial_datasets,
            t1_cores: 36,
            // a T1 disk holds the pre-produced datasets and two thirds of
            // the production: every shipment of the last third evicts
            t1_disk_datasets: (initial_datasets as u64 + datasets * 2 / 3) as f64,
            datasets_per_job: 3,
            seed,
        }
    }

    /// Job arrivals per T1. 80 000 jobs of 60–300 s on 36 cores keep a T1
    /// farm at 89 % over the 448 000 s of production: queues form and
    /// drain, the farm never falls behind for good.
    fn jobs_per_t1(size: Size) -> u64 {
        match size {
            Size::Full => 80_000,
            Size::Smoke => 40,
        }
    }

    /// How far behind production analysis trails: jobs read datasets among
    /// the newest quarter of the production, all of them still on disk.
    fn job_window(&self) -> u64 {
        self.datasets / 4
    }

    /// Seconds of production.
    pub fn production_window(&self) -> f64 {
        self.datasets as f64 * self.production_interval
    }

    fn dataset_bytes(&self) -> f64 {
        self.dataset_gb * 1.0e9
    }
}

/// `scenario.txt`, `outages.txt` (`start_s duration_s` per line) and
/// `jobs.jsonl` (MonALISA-style records: `time`, submitting `node`,
/// `metric` = `job_arrival/<dataset id>`, `value` = CPU work in seconds).
pub fn generate(seed: u64, size: Size) -> Vec<InputFile> {
    let sc = Scenario::for_size(size, seed);
    let window = sc.production_window();
    let scenario = format!(
        "n_t1 {}\nuplink_gbps {}\nt1_link_gbps {}\ndataset_gb {}\nproduction_interval {}\n\
         datasets {}\ninitial_datasets {}\nt1_cores {}\nt1_disk_datasets {}\n\
         datasets_per_job {}\nseed {}\n",
        sc.n_t1,
        sc.uplink_gbps,
        sc.t1_link_gbps,
        sc.dataset_gb,
        sc.production_interval,
        sc.datasets,
        sc.initial_datasets,
        sc.t1_cores,
        sc.t1_disk_datasets,
        sc.datasets_per_job,
        sc.seed
    );

    // a two-minute uplink outage per forty datasets (forty at full size),
    // jittered around a fixed period
    let mut rng = Rng::new(seed, 10);
    let period = window / (sc.datasets / 40) as f64;
    let mut outages = String::new();
    let mut k = 1.0;
    while k * period + 120.0 < window {
        let start = k * period + rng.range(-0.25, 0.25) * period;
        outages.push_str(&format!("{start} 120\n"));
        k += 1.0;
    }

    let jobs = job_trace(&sc, Scenario::jobs_per_t1(size) * sc.n_t1 as u64, seed);
    vec![
        ("scenario.txt", scenario.into_bytes()),
        ("outages.txt", outages.into_bytes()),
        ("jobs.jsonl", jobs.into_bytes()),
    ]
}

/// The job-arrival trace: Poisson arrivals over the production window, each
/// record naming one recently produced dataset (the analysis window trails
/// production).
pub fn job_trace(sc: &Scenario, total_jobs: u64, seed: u64) -> String {
    let mean_gap = sc.production_window() / total_jobs as f64;
    let mut jrng = Rng::new(seed, 11);
    let mut jobs = String::with_capacity(total_jobs as usize * 72);
    let mut t = 0.0;
    for _ in 0..total_jobs {
        t += jrng.exp(mean_gap);
        let produced = (t / sc.production_interval) as u64 + 1;
        // ids 0..initial are the pre-produced datasets; skip the newest
        // few, which may still be on the wire
        let newest = sc.initial_datasets as u64 + produced.min(sc.datasets).saturating_sub(8);
        // a job also reads the datasets just before the one it names
        let oldest = newest
            .saturating_sub(sc.job_window())
            .max(sc.datasets_per_job - 1);
        let dataset = oldest + jrng.below(newest - oldest);
        let node = jrng.below(sc.n_t1 as u64);
        let work = jrng.range(60.0, 300.0);
        jobs.push_str(&format!(
            "{{\"time\":{t},\"node\":\"T1-{node}\",\"metric\":\"job_arrival/{dataset}\",\"value\":{work}}}\n"
        ));
    }
    jobs
}

/// One replayed job arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArrival {
    /// Submission time.
    pub at: f64,
    /// Newest dataset the job reads.
    pub dataset: u64,
    /// CPU work, reference-core seconds.
    pub work: f64,
}

/// Parsed input.
pub struct LhcInput {
    /// The scenario.
    pub scenario: Scenario,
    /// `(start, duration)` of each T0-uplink outage.
    pub outages: Vec<(f64, f64)>,
    /// Job arrivals, time-ordered (shared with the engine's replay source).
    pub jobs: Rc<[JobArrival]>,
}

/// The replayed stream: `Init` at time zero, then one `Submit` per job
/// arrival, built when the engine asks for it.
pub struct JobReplay {
    jobs: Rc<[JobArrival]>,
    datasets_per_job: u64,
    /// 0 = `Init` is next; `i + 1` = arrival `i` is next.
    next: usize,
}

impl JobReplay {
    fn new(input: &LhcInput) -> Self {
        JobReplay {
            jobs: input.jobs.clone(),
            datasets_per_job: input.scenario.datasets_per_job,
            next: 0,
        }
    }
}

impl Iterator for JobReplay {
    type Item = (SimTime, GridEvent);

    fn next(&mut self) -> Option<(SimTime, GridEvent)> {
        let i = self.next;
        self.next += 1;
        if i == 0 {
            return Some((SimTime::ZERO, GridEvent::Init));
        }
        let job = self.jobs.get(i - 1)?;
        let at = SimTime::new(job.at);
        let spec = JobSpec {
            id: JobId(i as u64 - 1),
            owner: 0,
            work: job.work,
            inputs: (0..self.datasets_per_job)
                .map(|back| FileId(job.dataset - back))
                .collect(),
            output_bytes: 0.0,
            submitted: at, // restamped at delivery
            deadline: None,
            budget: None,
        };
        Some((at, GridEvent::Submit(spec)))
    }
}

fn bad(what: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.into())
}

fn load_scenario(dir: &Path) -> std::io::Result<Scenario> {
    let text = std::fs::read_to_string(dir.join("scenario.txt"))?;
    let recs: Vec<Vec<&str>> = text.lines().map(fields).collect();
    Ok(Scenario {
        n_t1: named(&recs, "n_t1")?,
        uplink_gbps: named(&recs, "uplink_gbps")?,
        t1_link_gbps: named(&recs, "t1_link_gbps")?,
        dataset_gb: named(&recs, "dataset_gb")?,
        production_interval: named(&recs, "production_interval")?,
        datasets: named(&recs, "datasets")?,
        initial_datasets: named(&recs, "initial_datasets")?,
        t1_cores: named(&recs, "t1_cores")?,
        t1_disk_datasets: named(&recs, "t1_disk_datasets")?,
        datasets_per_job: named(&recs, "datasets_per_job")?,
        seed: named(&recs, "seed")?,
    })
}

/// The tier architecture of `Monarc::build_grid`: T0 — shared uplink —
/// gateway — fat links — T1s. The uplink duplex is added first, so its
/// directed links are ids 0 and 1.
fn build_grid(sc: &Scenario) -> BuiltGrid {
    let mut topo = Topology::new();
    let t0 = topo.add_node(NodeKind::Host, "T0");
    let gw = topo.add_node(NodeKind::Router, "T0-gateway");
    topo.add_duplex(t0, gw, gbps(sc.uplink_gbps), 0.001);
    let mut sites = vec![Site::new(
        SiteId(0),
        "T0",
        0,
        t0,
        // T0 produces and stores; it is not an analysis farm
        CpuFarm::new(1, 1e-6, Sharing::Space, Discipline::Fifo),
        StorageElement::new(1.0e16),
        f64::INFINITY,
    )
    .with_tape(MassStorage::new(4, 45.0, 400.0e6))
    .with_db(DbServer::new(8, 0.2))];
    let mut parents = vec![None];
    for i in 0..sc.n_t1 {
        let node = topo.add_node(NodeKind::Host, format!("T1-{i}"));
        topo.add_duplex(gw, node, gbps(sc.t1_link_gbps), 0.02);
        sites.push(Site::new(
            SiteId(i + 1),
            format!("T1-{i}"),
            1,
            node,
            CpuFarm::new(sc.t1_cores, 1.0, Sharing::Space, Discipline::Fifo),
            StorageElement::new(sc.t1_disk_datasets * sc.dataset_bytes()),
            1.0,
        ));
        parents.push(Some(SiteId(0)));
    }
    BuiltGrid {
        sites,
        topology: topo,
        organization: Organization::Tiered,
        parents,
    }
}

/// Builds the grid model the way `Monarc::prepare` does: agent on with
/// `2 × n_t1` parallel shipments, pull-LRU replication, least-loaded
/// brokering, the pre-produced datasets already at every T1, and the
/// uplink outages as a fault schedule on links 0 and 1.
pub fn build_model(sc: &Scenario, outages: &[(f64, f64)]) -> GridModel {
    let cfg = GridConfig {
        grid: build_grid(sc),
        policy: Box::new(LeastLoaded),
        replication: ReplicationPolicy::PullLru,
        activities: Vec::new(), // the trace is the only job source
        production: Some(Production {
            site: SiteId(0),
            interarrival: product::Dist::constant(sc.production_interval),
            size: product::Dist::constant(sc.dataset_bytes()),
            limit: Some(sc.datasets),
        }),
        agent: Some(sc.n_t1 * 2),
        eligible: None,
        initial_files: (0..sc.initial_datasets)
            .map(|_| (sc.dataset_bytes(), SiteId(0)))
            .collect(),
        seed: sc.seed,
    };
    let mut model = GridModel::new(cfg);
    if !outages.is_empty() {
        let mut faults = FaultSchedule::new();
        for &(at, duration) in outages {
            faults.link_outage(LinkId(0), at, duration);
            faults.link_outage(LinkId(1), at, duration);
        }
        model.set_faults(faults);
    }
    for f in 0..sc.initial_datasets {
        for t1 in 1..=sc.n_t1 {
            model.prestage_replica(FileId(f as u64), SiteId(t1));
        }
    }
    model
}

/// What `Monarc::summarize` distils from a finished model, recomputed by
/// the benchmark so the facade can be checked against it.
#[derive(Debug, Clone, PartialEq)]
pub struct Shipping {
    /// Datasets produced.
    pub produced: u64,
    /// Agent shipments completed.
    pub shipped: u64,
    /// Time the last shipment completed.
    pub last_shipment: f64,
    /// Mean production→T1 availability lag.
    pub mean_lag: f64,
    /// Largest availability lag.
    pub max_lag: f64,
}

/// Distils production and agent logs into [`Shipping`].
pub fn shipping(model: &GridModel) -> Shipping {
    // file ids are dense, so the production time of a file is a vector
    // lookup away
    let mut produced_at = Vec::new();
    for &(file, at) in model.produced_log() {
        let i = file as usize;
        if produced_at.len() <= i {
            produced_at.resize(i + 1, 0.0);
        }
        produced_at[i] = at;
    }
    let (mut sum, mut max, mut last) = (0.0f64, 0.0f64, 0.0f64);
    for &(file, _dst, finished) in model.agent_log() {
        let lag = finished - produced_at.get(file as usize).copied().unwrap_or(0.0);
        sum += lag;
        max = max.max(lag);
        last = last.max(finished);
    }
    let n = model.agent_log().len();
    Shipping {
        produced: model.produced(),
        shipped: model.agent().map_or(0, |a| a.shipped()),
        last_shipment: last,
        mean_lag: if n == 0 { 0.0 } else { sum / n as f64 },
        max_lag: max,
    }
}

/// The `lhc_t0t1` study.
pub struct Lhc;

impl Study for Lhc {
    type M = GridModel;
    type Input = LhcInput;

    fn load(dir: &Path) -> std::io::Result<LhcInput> {
        let scenario = load_scenario(dir)?;
        let outages = std::fs::read_to_string(dir.join("outages.txt"))?
            .lines()
            .map(|l| {
                let rec = fields(l);
                Ok((
                    field(&rec, 0, "outage start")?,
                    field(&rec, 1, "outage duration")?,
                ))
            })
            .collect::<std::io::Result<Vec<(f64, f64)>>>()?;
        let file = std::fs::File::open(dir.join("jobs.jsonl"))?;
        let trace = product::read_trace(std::io::BufReader::new(file))?;
        let newest = scenario.initial_datasets as u64 + scenario.datasets;
        let jobs = trace
            .records()
            .iter()
            .map(|rec| {
                let dataset: u64 = rec
                    .metric
                    .strip_prefix("job_arrival/")
                    .and_then(|d| d.parse().ok())
                    .filter(|&d| d < newest && d + 1 >= scenario.datasets_per_job)
                    .ok_or_else(|| bad(format!("jobs.jsonl: bad metric {:?}", rec.metric)))?;
                if !(rec.value > 0.0 && rec.value.is_finite()) {
                    return Err(bad("jobs.jsonl: job work must be positive"));
                }
                Ok(JobArrival {
                    at: rec.time,
                    dataset,
                    work: rec.value,
                })
            })
            .collect::<std::io::Result<Rc<[JobArrival]>>>()?;
        Ok(LhcInput {
            scenario,
            outages,
            jobs,
        })
    }

    fn build(input: &LhcInput) -> GridModel {
        build_model(&input.scenario, &input.outages)
    }

    fn prime(_: &LhcInput, _: &mut dyn FnMut(SimTime, GridEvent)) {
        // every external event is in the replayed trace (see `JobReplay`)
    }

    fn horizon(_: &LhcInput) -> Option<SimTime> {
        None
    }

    fn outcome(input: &LhcInput, model: &GridModel, events: u64) -> Outcome {
        let sc = &input.scenario;
        let ship = shipping(model);
        let report = model.report();
        let mut fp = 0u64;
        for r in &report.records {
            fp = fp.wrapping_add(outcome(r.id.0, r.finished.seconds().to_bits()));
        }
        for &(file, dst, finished) in model.agent_log() {
            fp = fp.wrapping_add(outcome(
                (1 << 62) | (file << 8) | dst as u64,
                finished.to_bits(),
            ));
        }
        for (i, field) in [
            report.produced,
            report.agent_shipped,
            report.transfer_retries,
            report.transfer_failures,
            report.jobs_requeued,
            report.wan_bytes.to_bits(),
        ]
        .into_iter()
        .enumerate()
        {
            fp = fp.wrapping_add(outcome((1 << 63) | i as u64, field));
        }
        let expected_shipments = sc.datasets * sc.n_t1 as u64;
        let jobs = report.records.len() as u64;
        let violation = (ship.shipped != expected_shipments
            || jobs != input.jobs.len() as u64
            || report.transfer_failures != 0
            || model.in_flight() != 0)
            .then(|| {
                format!(
                    "{} of {expected_shipments} shipments, {jobs} of {} jobs, {} transfers \
                     abandoned, {} jobs in flight",
                    ship.shipped,
                    input.jobs.len(),
                    report.transfer_failures,
                    model.in_flight()
                )
            });
        let evictions: usize = (1..=sc.n_t1)
            .map(|t1| {
                // every shipment and every staged copy was stored; what is
                // no longer resident was evicted
                let resident = model.site(SiteId(t1)).disk.file_count();
                (sc.initial_datasets + sc.datasets as usize).saturating_sub(resident)
            })
            .sum();
        let mut counts = super::flow::net_counts(model.net());
        counts.extend([
            ("grid.jobs_completed", jobs as f64),
            ("grid.agent_shipped", ship.shipped as f64),
            ("grid.transfer_retries", report.transfer_retries as f64),
            ("grid.transfer_failures", report.transfer_failures as f64),
            ("grid.evictions", evictions as f64),
        ]);
        let text = format!(
            "{{\"workload\":\"lhc_t0t1\",\"produced\":{},\"shipped\":{},\"last_shipment\":{},\
             \"mean_availability_lag\":{},\"max_availability_lag\":{},\"jobs\":{jobs},\
             \"mean_makespan\":{},\"mean_stage_time\":{},\"wan_bytes\":{},\
             \"transfer_retries\":{},\"transfer_failures\":{}}}",
            ship.produced,
            ship.shipped,
            ship.last_shipment,
            ship.mean_lag,
            ship.max_lag,
            report.mean_makespan,
            report.mean_stage_time,
            report.wan_bytes,
            report.transfer_retries,
            report.transfer_failures
        );
        Outcome {
            ops: ship.shipped + jobs,
            events,
            fingerprint: fp,
            counts,
            violation,
            report: text,
        }
    }
}

fn no_schedule<E>(_: &mut E, _: SimTime, _: GridEvent) {
    unreachable!("lhc_t0t1 schedules nothing up front");
}

/// Runs one trial of `lhc_t0t1` on the trace-driven engine.
pub fn run(dir: &Path, mode: Mode) -> Trial {
    match mode {
        Mode::Plain => {
            drive::<Lhc, _>(
                dir,
                |input, model| product::replay_plain(model, JobReplay::new(input)),
                no_schedule,
                |e, _| product::run_replay(e),
                |e| e.model(),
            )
            .1
        }
        Mode::Observed => {
            let (engine, mut trial) = drive::<Lhc, _>(
                dir,
                |input, model| product::replay_observed(model, JobReplay::new(input)),
                no_schedule,
                |e, _| product::run_replay(e),
                |e| e.model(),
            );
            check_observed(&mut trial, product::replay_digest(engine));
            trial
        }
        Mode::Traced => traced(|counters| {
            drive::<Lhc, _>(
                dir,
                |input, model| {
                    product::replay_shimmed(
                        TimedModel::new(model, counters.clone()),
                        TimedSource::new(JobReplay::new(input)),
                        TimedQueue::new(product::BinaryHeapQueue::new(), counters.clone()),
                    )
                },
                no_schedule,
                |e, _| product::run_replay(e),
                |e| e.model().inner(),
            )
            .1
        }),
    }
}
