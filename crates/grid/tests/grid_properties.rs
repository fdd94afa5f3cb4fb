//! Randomized invariants of the composed grid model: jobs are conserved,
//! lifecycle timestamps are ordered, runs are reproducible — with and
//! without injected faults.
//!
//! Cases are generated with the deterministic [`SimRng`] (seeded per
//! trial), replacing the property-testing framework the offline build
//! cannot fetch.

use lsds_core::{EventDriven, SimTime};
use lsds_grid::cpu::Discipline;
use lsds_grid::model::{GridConfig, GridModel, Production};
use lsds_grid::organization::{flat_grid, BuiltGrid, SiteSpec};
use lsds_grid::scheduler::LeastLoaded;
use lsds_grid::storage::StorageElement;
use lsds_grid::{
    Activity, CpuFarm, FaultSchedule, FileId, GridEvent, JobId, JobSpec, Organization,
    ReplicationPolicy, Sharing, Site, SiteId,
};
use lsds_net::{gbps, LinkId, NodeKind, RetryPolicy, Topology};
use lsds_stats::{Dist, SimRng};

const TRIALS: u64 = 24;

fn build(
    n_sites: usize,
    n_jobs: u64,
    mean_ia: f64,
    mean_work: f64,
    files: usize,
    replication: ReplicationPolicy,
    seed: u64,
) -> GridConfig {
    let grid = flat_grid(
        vec![SiteSpec::default(); n_sites],
        lsds_net::mbps(622.0),
        0.005,
    );
    let initial_files = (0..files).map(|i| (0.5e9, SiteId(i % n_sites))).collect();
    let master = SimRng::new(seed);
    let activity = if files > 0 {
        Activity::analysis(
            0,
            mean_ia,
            Dist::exp_mean(mean_work),
            2,
            files,
            0.8,
            master.fork(1),
        )
    } else {
        Activity::compute(0, mean_ia, Dist::exp_mean(mean_work), master.fork(1))
    };
    GridConfig {
        grid,
        policy: Box::new(LeastLoaded),
        replication,
        activities: vec![activity.with_limit(n_jobs)],
        production: None,
        agent: None,
        eligible: None,
        initial_files,
        seed,
    }
}

/// Faults for one trial: Poisson outages of the file holders' access
/// links, now and then a site outage, a retry budget of 0–3, and disks
/// that hold only a few files beyond their origin copies.
fn add_faults(
    cfg: &mut GridConfig,
    files: usize,
    rng: &mut SimRng,
) -> (FaultSchedule, RetryPolicy) {
    let n_sites = cfg.grid.sites.len();
    let per_site = files.div_ceil(n_sites);
    for site in &mut cfg.grid.sites {
        let slots = per_site as u64 + 1 + rng.next_below(3);
        site.disk = StorageElement::new(slots as f64 * 0.5e9);
    }
    // in the star, site i reaches the hub over links 2i (out) and 2i + 1
    let holders: Vec<LinkId> = (0..n_sites.min(files))
        .flat_map(|i| [LinkId(2 * i), LinkId(2 * i + 1)])
        .collect();
    let mut faults = FaultSchedule::new();
    faults.poisson_link_outages(&mut rng.fork(2), &holders, 2_000.0, 400.0, 60.0);
    if rng.chance(0.3) {
        let site = SiteId(rng.index(n_sites));
        faults.site_outage(site, rng.range_f64(0.0, 600.0), rng.range_f64(10.0, 300.0));
    }
    let retry = RetryPolicy {
        max_retries: rng.next_below(4) as u32,
        ..RetryPolicy::default()
    };
    (faults, retry)
}

/// Every generated job completes exactly once, with ordered lifecycle
/// timestamps, under any replication policy, with or without faults; at
/// quiescence only origin copies are still pinned.
#[test]
fn jobs_conserved_and_ordered() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0x6E1D0 + trial);
        let n_sites = 2 + rng.next_below(3) as usize;
        let n_jobs = 1 + rng.next_below(39);
        let mean_ia = rng.range_f64(1.0, 30.0);
        let mean_work = rng.range_f64(1.0, 100.0);
        let files = rng.next_below(10) as usize;
        let policy = [
            ReplicationPolicy::None,
            ReplicationPolicy::PullLru,
            ReplicationPolicy::PullLfu,
            ReplicationPolicy::PullEconomic,
            ReplicationPolicy::Push { threshold: 2 },
        ][rng.next_below(5) as usize];
        let seed = rng.next_below(500);
        let faulty = rng.chance(0.5);
        let mut cfg = build(n_sites, n_jobs, mean_ia, mean_work, files, policy, seed);
        let faults = faulty.then(|| add_faults(&mut cfg, files, &mut rng));
        let case = format!(
            "sites={n_sites} jobs={n_jobs} files={files} policy={policy:?} seed={seed} \
             faults={:?}",
            faults.as_ref().map(|(f, r)| (f.len(), r.max_retries))
        );
        let mut sim = GridModel::build(cfg);
        if let Some((faults, retry)) = faults {
            sim.model_mut().set_faults(faults);
            sim.model_mut().set_retry_policy(retry);
        }
        sim.run_until(SimTime::new(1.0e7));
        let m = sim.model();
        let rep = m.report();
        assert_eq!(rep.records.len() as u64, n_jobs, "{case}");
        assert_eq!(m.in_flight(), 0, "nothing stuck: {case}");
        let mut ids: Vec<u64> = rep.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, n_jobs, "no duplicate completions: {case}");
        for r in &rep.records {
            assert!(r.submitted <= r.staged, "{case}");
            assert!(r.staged <= r.started, "{case}");
            assert!(r.started <= r.finished, "{case}");
            assert!(r.site.0 < n_sites, "{case}");
            assert!(r.staged_bytes >= 0.0, "{case}");
        }
        if files == 0 {
            assert_eq!(rep.wan_bytes, 0.0, "{case}");
        }
        // file i's origin copy sits pinned at site i mod n_sites
        for s in 0..n_sites {
            let disk = &m.site(SiteId(s)).disk;
            for f in 0..m.catalog().len() {
                let pins = disk.meta(FileId(f as u64)).map_or(0, |meta| meta.pins);
                let origin = f < files && f % n_sites == s;
                assert_eq!(pins, u32::from(origin), "file {f} at site {s}: {case}");
            }
        }
    }
}

/// Bit-for-bit reproducibility for any configuration.
#[test]
fn reproducible() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::new(0x6E1D1 + trial);
        let n_jobs = 1 + rng.next_below(24);
        let seed = rng.next_below(200);
        let policy = [
            ReplicationPolicy::None,
            ReplicationPolicy::PullLru,
            ReplicationPolicy::Push { threshold: 2 },
        ][rng.next_below(3) as usize];
        let run = || {
            let mut sim = GridModel::build(build(3, n_jobs, 5.0, 20.0, 6, policy, seed));
            sim.run_until(SimTime::new(1.0e7));
            sim.model()
                .report()
                .records
                .iter()
                .map(|r| (r.id.0, r.site.0, r.finished.seconds()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}

const T1S: usize = 11;
const PRESTAGED: usize = 64;
const PRODUCED: u64 = 60;
const DATASET: f64 = 87.5e9;
const PRODUCTION_INTERVAL: f64 = 280.0;
const JOBS: usize = 100 * T1S;

/// The `lhc_t0t1` shape, small: T0 produces 60 datasets of 87.5 GB (64
/// more are pre-staged at every T1) and its agent ships each to the 11
/// T1s over a 30 Gbit/s uplink — links 0 and 1 — that is down for 200 s
/// every 600 s. T1 disks hold 104 datasets, so the last shipments evict.
/// 100 jobs per T1 each read three consecutive recent datasets, and a
/// small retry budget turns most outages into abandoned transfers.
/// `crashes` adds T1 site outages: `(site, at, duration)`.
fn small_disk_outage(seed: u64, crashes: &[(usize, f64, f64)]) -> EventDriven<GridModel> {
    let mut topo = Topology::new();
    let t0 = topo.add_node(NodeKind::Host, "T0");
    let gw = topo.add_node(NodeKind::Router, "T0-gateway");
    topo.add_duplex(t0, gw, gbps(30.0), 0.001);
    let farm = |cores, speed| CpuFarm::new(cores, speed, Sharing::Space, Discipline::Fifo);
    let mut sites = vec![Site::new(
        SiteId(0),
        "T0",
        0,
        t0,
        farm(1, 1e-6),
        StorageElement::new(1.0e16),
        f64::INFINITY,
    )];
    let mut parents = vec![None];
    for i in 1..=T1S {
        let node = topo.add_node(NodeKind::Host, format!("T1-{i}"));
        topo.add_duplex(gw, node, gbps(10.0), 0.02);
        let disk = StorageElement::new((PRESTAGED as f64 + 40.0) * DATASET);
        sites.push(Site::new(
            SiteId(i),
            format!("T1-{i}"),
            1,
            node,
            farm(36, 1.0),
            disk,
            1.0,
        ));
        parents.push(Some(SiteId(0)));
    }
    let cfg = GridConfig {
        grid: BuiltGrid {
            sites,
            topology: topo,
            organization: Organization::Tiered,
            parents,
        },
        policy: Box::new(LeastLoaded),
        replication: ReplicationPolicy::PullLru,
        activities: Vec::new(),
        production: Some(Production {
            site: SiteId(0),
            interarrival: Dist::constant(PRODUCTION_INTERVAL),
            size: Dist::constant(DATASET),
            limit: Some(PRODUCED),
        }),
        agent: Some(2 * T1S),
        eligible: None,
        initial_files: vec![(DATASET, SiteId(0)); PRESTAGED],
        seed,
    };
    let mut sim = GridModel::build(cfg);
    let window = PRODUCED as f64 * PRODUCTION_INTERVAL;
    let mut faults = FaultSchedule::new();
    let mut at = 600.0;
    while at < window {
        faults.link_outage(LinkId(0), at, 200.0);
        faults.link_outage(LinkId(1), at, 200.0);
        at += 600.0;
    }
    for &(site, at, duration) in crashes {
        faults.site_outage(SiteId(site), at, duration);
    }
    let m = sim.model_mut();
    for f in 0..PRESTAGED {
        for t1 in 1..=T1S {
            m.prestage_replica(FileId(f as u64), SiteId(t1));
        }
    }
    m.set_faults(faults);
    m.set_retry_policy(RetryPolicy {
        max_retries: 2,
        ..RetryPolicy::default()
    });
    let mut rng = SimRng::new(seed);
    let gap = Dist::exp_mean(window / JOBS as f64);
    let mut t = 0.0;
    for id in 0..JOBS as u64 {
        t += gap.sample(&mut rng);
        // jobs read among the newest quarter of the production, skipping
        // the datasets that may still be on the wire
        let produced = ((t / PRODUCTION_INTERVAL) as u64 + 1).min(PRODUCED);
        let newest = PRESTAGED as u64 + produced.saturating_sub(8);
        let oldest = newest.saturating_sub(15).max(2);
        let dataset = oldest + rng.next_below(newest - oldest);
        let at = SimTime::new(t);
        let spec = JobSpec {
            id: JobId(id),
            owner: 0,
            work: rng.range_f64(60.0, 300.0),
            inputs: (0..3).map(|back| FileId(dataset - back)).collect(),
            output_bytes: 0.0,
            submitted: at,
            deadline: None,
            budget: None,
        };
        sim.schedule(at, GridEvent::Submit(spec));
    }
    sim
}

/// Runs the small-disk / outage regime to quiescence and checks that
/// every job finished exactly once, nothing is stuck, no T1 file is left
/// pinned, and the regime really abandoned transfers and requeued jobs.
fn assert_regime_finishes(mut sim: EventDriven<GridModel>, case: &str) {
    sim.run_until(SimTime::new(1.0e7));
    let m = sim.model();
    let rep = m.report();
    let mut ids: Vec<u64> = rep.records.iter().map(|r| r.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(rep.records.len(), JOBS, "one record per job: {case}");
    assert_eq!(ids.len(), JOBS, "no duplicate completions: {case}");
    assert_eq!(m.in_flight(), 0, "nothing stuck: {case}");
    for t1 in 1..=T1S {
        let disk = &m.site(SiteId(t1)).disk;
        for f in 0..m.catalog().len() {
            let pins = disk.meta(FileId(f as u64)).map_or(0, |meta| meta.pins);
            assert_eq!(pins, 0, "file {f} left pinned at T1 {t1}: {case}");
        }
    }
    assert!(rep.transfer_failures > 0, "no transfer abandoned: {case}");
    assert!(rep.jobs_requeued > 0, "no job requeued: {case}");
}

/// A job sent back to the broker while some of its inputs were still in
/// flight must not be counted, pinned or requeued by those fetches once
/// it is placed again.
#[test]
fn small_disk_outage_regime_finishes_every_job() {
    for seed in 1..=3 {
        assert_regime_finishes(small_disk_outage(seed, &[]), &format!("seed {seed}"));
    }
    let crashes = [(3, 3_000.0, 1_500.0), (7, 9_000.0, 2_000.0)];
    assert_regime_finishes(small_disk_outage(4, &crashes), "seed 4, two T1 crashes");
}
