//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and — for end-to-end metrics — the bound by which it may get
//! worse before a change counts as a regression. `BENCHMARK.json` at the
//! repository root repeats this table; a self-test keeps the two equal.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload, bounded.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// The end-to-end metrics.
///
/// `fail_frac` of the issue is not among them: the contract wants metrics
/// that are never 0, and a failure fraction is 0 on every good run. Failed
/// trials are reported as `attempted`/`failed`/`correct` instead, and any
/// failure makes the run exit non-zero.
///
/// The timing bounds are 0.25, the widest the contract allows, not the
/// 0.10 the issue hoped for: on the 2-core reference box the speed of the
/// host drifts by 10–30 % over minutes whatever the working set (the
/// host's other tenants, not this program), so the medians of ten runs
/// spread by 3–17 % of their median. A bound inside that noise would
/// reject changes at random. Peak memory repeats to 1 % on one seed and
/// moves by up to 3 % from seed to seed (other inputs, other allocations):
/// 0.10.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "observed_wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
    },
];

/// A per-layer metric (no bound). The layer is the first dotted component
/// of the name, except `sim` = `simulators`, `par` = `parallel` and
/// `bench` = this benchmark's own shims.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The workloads whose per-layer pass measures it. A probe belongs to
    /// the one workload whose end-to-end numbers it should move, so every
    /// probe runs once in a full run; a pass that leaves one of its own
    /// metrics without a value fails.
    pub on: &'static [&'static str],
    /// An exact count of simulated behaviour: every trial of a pass, and
    /// two runs of one commit on one seed, must report it equal (`agree`
    /// checks).
    pub exact: bool,
}

impl PerLayer {
    /// Whether the per-layer pass of `workload` measures this metric.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }
}

const LHC: &[&str] = &["lhc_t0t1"];
const SCALE: &[&str] = &["net_scale_100k"];
const FLOW: &[&str] = &["flow_contention"];
const HOLD: &[&str] = &["queue_hold"];
const PHOLD: &[&str] = &["phold_par"];
/// The workloads with a `FlowNet` in them.
const NETS: &[&str] = &["lhc_t0t1", "net_scale_100k", "flow_contention"];
/// The single-threaded workloads: the ones the queue and model shims trace.
const SEQ: &[&str] = &[
    "lhc_t0t1",
    "net_scale_100k",
    "flow_contention",
    "queue_hold",
];
const ALL: &[&str] = &crate::workloads::NAMES;

/// A measured quantity.
const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
        exact: false,
    }
}

/// An exact count.
const fn x(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        exact: true,
        ..m(name, unit, better, on)
    }
}

/// The per-layer metrics, in reporting order. Sources: *count* = the
/// layer's own counter read after a trial (repeats exactly), *traced* =
/// self time from the shim-traced trials, *probe* = `probes.rs`. The last
/// column is where each is measured (see [`PerLayer::on`]); a self time
/// that must be 0 on a workload (`grid.*` outside `lhc_t0t1`) is measured
/// there, not assumed.
pub const PER_LAYER: [PerLayer; 89] = [
    // stats (probes)
    m("stats.dist_sample_ns", "ns", Lower, HOLD),
    m("stats.summary_add_ns", "ns", Lower, HOLD),
    // core: counts, traced, probes
    x("core.events", "count", Lower, ALL),
    m("core.events_per_s", "1/s", Higher, ALL),
    x("core.queue.max_len", "count", Lower, SEQ),
    x("core.pool.slot_high_water", "count", Lower, HOLD),
    m("core.queue.self_s", "s", Lower, SEQ),
    m("core.engine.self_s", "s", Lower, SEQ),
    m("core.handler.self_s", "s", Lower, SEQ),
    m("core.queue.heap.hold_ns_1k", "ns", Lower, HOLD),
    m("core.queue.heap.hold_ns_1m", "ns", Lower, HOLD),
    m("core.queue.ladder.hold_ns_1m", "ns", Lower, HOLD),
    m("core.queue.calendar.hold_ns_1m", "ns", Lower, HOLD),
    m("core.queue.sorted.hold_ns_1k", "ns", Lower, HOLD),
    m("core.queue.pooled_heap.hold_ns_1m", "ns", Lower, HOLD),
    m("core.engine.dispatch_ns", "ns", Lower, HOLD),
    m("core.time_driven.tick_ns", "ns", Lower, HOLD),
    m("core.trace_driven.replay_events_per_s", "1/s", Higher, HOLD),
    // net: counts, traced, probes, accuracy
    x("net.reshares", "count", Lower, NETS),
    x("net.flows_touched_per_reshare", "count", Lower, NETS),
    x("net.links_touched_per_reshare", "count", Lower, NETS),
    x("net.route_cache_hit_ratio", "ratio", Higher, NETS),
    x("net.flows_completed", "count", Higher, NETS),
    x("net.flows_aborted", "count", Lower, NETS),
    x("net.flows_rerouted", "count", Lower, NETS),
    m("net.handler.self_s", "s", Lower, SEQ),
    m("net.start_ns_disjoint", "ns", Lower, FLOW),
    m("net.start_us_shared1k", "us", Lower, FLOW),
    m("net.complete_us_shared1k", "us", Lower, FLOW),
    m("net.apply_fault_us", "us", Lower, FLOW),
    m("net.routing.compute_ms_120k", "ms", Lower, SCALE),
    m("net.route.path_ns_hit", "ns", Lower, SCALE),
    m("net.route.path_ns_miss", "ns", Lower, SCALE),
    m("net.maxmin_rel_err", "ratio", Lower, FLOW),
    // grid: counts, traced, probes
    x("grid.jobs_completed", "count", Higher, LHC),
    x("grid.agent_shipped", "count", Higher, LHC),
    x("grid.evictions", "count", Lower, LHC),
    x("grid.transfer_retries", "count", Lower, LHC),
    x("grid.transfer_failures", "count", Lower, LHC),
    m("grid.handler.self_s", "s", Lower, SEQ),
    m("grid.scheduler.place_ns_12", "ns", Lower, LHC),
    m("grid.scheduler.place_ns_1k", "ns", Lower, LHC),
    m("grid.storage.store_ns", "ns", Lower, LHC),
    m("grid.storage.make_room_us_2k", "us", Lower, LHC),
    m("grid.storage.make_room_us_10k", "us", Lower, LHC),
    m("grid.cpu.submit_ns", "ns", Lower, LHC),
    m("grid.catalog.lookup_ns", "ns", Lower, LHC),
    // simulators (probes)
    m("sim.monarc.wall_ms", "ms", Lower, LHC),
    m("sim.bricks.wall_ms", "ms", Lower, LHC),
    m("sim.optorsim.wall_ms", "ms", Lower, LHC),
    m("sim.simgrid.wall_ms", "ms", Lower, LHC),
    m("sim.gridsim.wall_ms", "ms", Lower, LHC),
    m("sim.chicagosim.wall_ms", "ms", Lower, LHC),
    x("sim.monarc.matches_bench_builder", "count", Higher, LHC),
    // parallel: probes on the phold model, scheduler counters of the
    // plain trials, traced LP time
    m("par.seq.wall_s", "s", Lower, PHOLD),
    m("par.ws.wall_s_w1", "s", Lower, PHOLD),
    m("par.ws.speedup_vs_seq", "ratio", Higher, PHOLD),
    m("par.ws.efficiency", "ratio", Higher, PHOLD),
    m("par.ws.cpu_s", "s", Lower, PHOLD),
    m("par.ws.steals", "count", Lower, PHOLD),
    m("par.ws.parks", "count", Lower, PHOLD),
    m("par.ws.bound_updates_per_event", "count", Lower, PHOLD),
    m("par.lp.handler.self_s", "s", Lower, PHOLD),
    m("par.seq.wall_s_grain0", "s", Lower, PHOLD),
    m("par.ws.wall_s_grain0", "s", Lower, PHOLD),
    m("par.cmb.wall_s", "s", Lower, PHOLD),
    m("par.cmb.nulls_per_event", "count", Lower, PHOLD),
    m("par.cmb.blocked_s", "s", Lower, PHOLD),
    m("par.timestep.wall_s", "s", Lower, PHOLD),
    m("par.timestep.barrier_wait_s", "s", Lower, PHOLD),
    m("par.tw.wall_s", "s", Lower, PHOLD),
    m("par.tw.rolled_back_frac", "ratio", Lower, PHOLD),
    m("par.tw.antis_per_event", "count", Lower, PHOLD),
    x("par.engines_agree", "count", Higher, PHOLD),
    m("par.partition.profiled_us", "us", Lower, PHOLD),
    // obs / prof / trace (probes), and the benchmark's own shims
    m("obs.recorder.overhead_ratio", "ratio", Lower, SCALE),
    m("obs.telemetry.overhead_ratio", "ratio", Lower, SCALE),
    m("prof.tracer_full.overhead_ratio", "ratio", Lower, SCALE),
    m("prof.tracer_s16.overhead_ratio", "ratio", Lower, SCALE),
    x("prof.spans_recorded", "count", Higher, SCALE),
    m("prof.profile_ms", "ms", Lower, SCALE),
    m("prof.critical_path_ms", "ms", Lower, SCALE),
    m("trace.chrome_export_mib_per_s", "MiB/s", Higher, SCALE),
    m("trace.json_parse_mib_per_s", "MiB/s", Higher, SCALE),
    m("trace.read_trace_records_per_s", "1/s", Higher, LHC),
    m("bench.shim_overhead_ratio", "ratio", Lower, ALL),
    m("bench.trace_attributed_ratio", "ratio", Lower, SEQ),
    m("bench.trace_spans_kept", "count", Higher, ALL),
    // queueing (accuracy guard)
    m("queueing.mm1_wait_rel_err", "ratio", Lower, HOLD),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The 0/1 guards: a per-layer pass whose guard is not 1 has failed.
pub const GUARDS: [&str; 2] = ["sim.monarc.matches_bench_builder", "par.engines_agree"];
