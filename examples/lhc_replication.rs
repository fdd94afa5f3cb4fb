//! The MONARC T0/T1 replication study (Legrand et al. 2005, §5 of the
//! paper): sweep the shared T0 uplink from 0.6 to 30 Gbps and report
//! whether shipping the production stream to the tier-1 centers keeps
//! pace — "the existing capacity of 2.5 Gbps was not sufficient and …
//! the link was upgraded to a current 30 Gbps".
//!
//! The final section injects a deterministic T0-uplink outage into the
//! same scenario: transfers caught on the link abort and ride the
//! retry/backoff path, and the replication agent's eager shipping is
//! compared against on-demand pulls under the failure.
//!
//! The closing profiling section re-runs the 2.5 Gbps scenario with
//! causal tracing enabled, prints the per-handler wall-time profile and
//! the virtual-time critical path, and writes a Chrome trace-event file
//! (`lhc_replication.trace.json`, loadable in Perfetto).
//!
//! ```sh
//! cargo run --release --example lhc_replication
//! ```

use lsds::obs::TraceConfig;
use lsds::simulators::monarc::Monarc;
use lsds::trace::{write_chrome_trace, TextTable};

fn main() {
    let mut table = TextTable::with_columns(&[
        "uplink (Gbps)",
        "offered (Gbps)",
        "shipped",
        "mean lag (s)",
        "max lag (s)",
        "verdict",
    ]);
    println!("MONARC LHC T0→T1 study: 5 tier-1 centers, 100 GB datasets");
    println!("produced every 320 s (≈2.5 Gbps of raw production)\n");
    for uplink in [0.6, 1.25, 2.5, 5.0, 10.0, 15.0, 30.0] {
        let rep = Monarc {
            uplink_gbps: uplink,
            datasets: 40,
            ..Monarc::default()
        }
        .run(1.0e6);
        table.row(vec![
            format!("{uplink:.2}"),
            format!("{:.1}", rep.offered_gbps),
            format!("{}/{}", rep.shipped, rep.produced * 5),
            format!("{:.0}", rep.mean_availability_lag),
            format!("{:.0}", rep.max_availability_lag),
            if rep.sustainable {
                "sufficient".to_string()
            } else {
                "NOT sufficient".to_string()
            },
        ]);
    }
    print!("{}", table.render());
    println!();
    println!("The agent's role (10 Gbps uplink, 20 analysis jobs per tier-1):");
    for agent in [false, true] {
        let rep = Monarc {
            agent,
            analysis_jobs: 20,
            datasets: 10,
            uplink_gbps: 10.0,
            ..Monarc::default()
        }
        .run(1.0e6);
        println!(
            "  agent {}: mean stage time {:>7.1} s, mean job makespan {:>7.1} s",
            if agent { "ON " } else { "OFF" },
            rep.grid.mean_stage_time,
            rep.grid.mean_makespan
        );
    }
    println!();
    println!("Resilience under a T0 uplink outage (down t=1000 s for 1 h,");
    println!("10 Gbps uplink, 20 analysis jobs per tier-1):");
    for agent in [false, true] {
        let rep = Monarc {
            agent,
            analysis_jobs: 20,
            datasets: 10,
            uplink_gbps: 10.0,
            uplink_outages: vec![(1000.0, 3600.0)],
            ..Monarc::default()
        }
        .run(1.0e6);
        println!(
            "  agent {}: mean stage time {:>7.1} s, mean makespan {:>7.1} s, \
             {} retries, {} failures",
            if agent { "ON " } else { "OFF" },
            rep.grid.mean_stage_time,
            rep.grid.mean_makespan,
            rep.grid.transfer_retries,
            rep.grid.transfer_failures,
        );
    }
    println!();
    println!("Every aborted transfer is retried with exponential backoff;");
    println!("pre-staged replicas (agent ON) shield analysis from the outage.");

    println!();
    println!("Profiling the historical 2.5 Gbps scenario (tracing ON):");
    let (rep, spans) = Monarc {
        uplink_gbps: 2.5,
        datasets: 40,
        ..Monarc::default()
    }
    .run_traced(1.0e6, TraceConfig::default());
    println!(
        "  {} spans recorded ({} evicted), shipped {}/{}",
        spans.len(),
        spans.dropped,
        rep.shipped,
        rep.produced * 5
    );
    let profile = spans.profile();
    let mut prof_table =
        TextTable::with_columns(&["handler", "count", "p50 (µs)", "p99 (µs)", "total (ms)"]);
    let mut kinds = profile.kinds;
    kinds.sort_by(|a, b| b.wall_ns.sum().total_cmp(&a.wall_ns.sum()));
    for k in kinds.iter().take(6) {
        prof_table.row(vec![
            k.name.to_string(),
            format!("{}", k.wall_ns.count()),
            format!("{:.1}", k.wall_ns.p50() / 1e3),
            format!("{:.1}", k.wall_ns.p99() / 1e3),
            format!("{:.2}", k.wall_ns.sum() / 1e6),
        ]);
    }
    print!("{}", prof_table.render());
    let path = spans.critical_path();
    let share = path.by_kind();
    println!(
        "  critical path: {} events over {:.0} s of virtual time{}",
        path.steps.len(),
        path.makespan,
        if path.complete { "" } else { " (truncated)" }
    );
    for (kind, vt, n) in share.iter().take(3) {
        println!("    {kind}: {n} events, {vt:.0} s of the path");
    }
    let file = "lhc_replication.trace.json";
    match std::fs::File::create(file).and_then(|f| write_chrome_trace(&spans, &[], f)) {
        Ok(()) => println!("  Chrome trace written to {file} (open in Perfetto)"),
        Err(e) => println!("  could not write {file}: {e}"),
    }
}
