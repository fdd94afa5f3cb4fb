//! Self-tests of the benchmark, at smoke sizes (seconds in total):
//! the three run modes agree, inputs are a function of the seed, PHOLD's
//! per-edge sends are monotone and every engine agrees with the sequential
//! oracle, the pinned fingerprints hold, `BENCHMARK.json` says what the
//! code does, the binary's parent/child path produces the contract line,
//! a per-layer pass with a missing or a misnamed metric fails, and
//! `agree`/`compare` refuse what they should. Each test generates its
//! inputs under its own seed, so tests running in parallel never share a
//! file.

use lsds_benchmark::metrics::{END_TO_END, PER_LAYER};
use lsds_benchmark::product::{self, Json, SimTime};
use lsds_benchmark::report;
use lsds_benchmark::runner::{self, Plan, RunResult, TrialRecord, WorkloadRun};
use lsds_benchmark::workloads::{self, phold, Mode, Size, NAMES};

/// Fingerprints of seed 1 at smoke size, one per workload in `NAMES`
/// order. A change here means a workload simulates something else.
const PINNED_SMOKE: [u64; 5] = [
    0x7b6d_1fe2_0faf_1973,
    0xa7c0_9835_2043_dff8,
    0x2c5b_06c0_8352_2dc9,
    0xf0b3_3a76_be8d_47cb,
    0x7f43_6e83_dd40_3641,
];

fn smoke_trial(workload: &str, seed: u64, mode: Mode) -> workloads::Trial {
    let dir = runner::write_inputs(workload, seed, Size::Smoke).expect("inputs written");
    workloads::run(workload, &dir, mode)
}

#[test]
fn plain_observed_and_shimmed_runs_agree_on_every_workload() {
    for workload in NAMES {
        let trials: Vec<_> = [Mode::Plain, Mode::Observed, Mode::Traced]
            .into_iter()
            .map(|mode| smoke_trial(workload, 101, mode))
            .collect();
        for t in &trials {
            assert_eq!(t.outcome.violation, None, "{workload}");
            assert!(
                t.outcome.ops > 0 && t.wall_s > 0.0 && t.setup_s > 0.0,
                "{workload}"
            );
        }
        assert_eq!(
            trials[0].outcome.fingerprint, trials[1].outcome.fingerprint,
            "{workload}: observed"
        );
        assert_eq!(
            trials[0].outcome.fingerprint, trials[2].outcome.fingerprint,
            "{workload}: shimmed"
        );
        assert_eq!(
            trials[0].outcome.events, trials[2].outcome.events,
            "{workload}"
        );
        let layers = trials[2]
            .layers
            .as_ref()
            .expect("traced trial reports layers");
        assert!(layers.run_s > 0.0, "{workload}");
        assert!(!trials[2].spans.is_empty(), "{workload}: no spans");
        assert!(
            trials[0].layers.is_none() && trials[0].spans.is_empty(),
            "{workload}"
        );
    }
}

#[test]
fn traced_run_attributes_layers_where_they_are_used() {
    // queue_hold has no net or grid in it; the only benchmark-owned code in
    // lhc_t0t1's run is its trace source; every single-threaded workload
    // spends time in the queue
    let hold = smoke_trial("queue_hold", 102, Mode::Traced)
        .layers
        .expect("layers");
    assert!(hold.queue_s > 0.0);
    assert_eq!((hold.net_s, hold.grid_s, hold.lp_s), (0.0, 0.0, 0.0));
    let lhc = smoke_trial("lhc_t0t1", 102, Mode::Traced)
        .layers
        .expect("layers");
    assert!(lhc.queue_s > 0.0 && lhc.net_s > 0.0 && lhc.grid_s > 0.0);
    assert!(lhc.handler_core_s > 0.0 && lhc.handler_core_s < lhc.grid_s);
    let flow = smoke_trial("flow_contention", 102, Mode::Traced)
        .layers
        .expect("layers");
    assert!(flow.net_s > 0.0 && flow.grid_s == 0.0);
    let par = smoke_trial("phold_par", 102, Mode::Traced)
        .layers
        .expect("layers");
    assert!(par.lp_s > 0.0 && par.queue_s == 0.0);
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for workload in NAMES {
        let a = workloads::generate(workload, 7, Size::Smoke);
        let b = workloads::generate(workload, 7, Size::Smoke);
        let c = workloads::generate(workload, 8, Size::Smoke);
        assert_eq!(
            a, b,
            "{workload}: generation must be a function of the seed"
        );
        assert_ne!(a, c, "{workload}: another seed must give other inputs");
        assert!(a.iter().all(|(_, bytes)| !bytes.is_empty()), "{workload}");
    }
}

#[test]
fn phold_sends_are_monotone_and_every_engine_matches_sequential() {
    let dir = runner::write_inputs("phold_par", 103, Size::Smoke).expect("inputs written");
    let p = phold::load(&dir).expect("generated input parses");
    let (edges, t_end) = (p.edges(), SimTime::new(p.t_end));
    let seq = product::par_sequential(p.build(), &edges, t_end);
    assert!(seq.events > 1000, "smoke PHOLD too small to mean anything");
    assert!(
        seq.lps.iter().all(|lp| lp.monotone),
        "per-edge send went back in time"
    );
    assert_eq!(seq.events, seq.lps.iter().map(|lp| lp.events).sum::<u64>());
    let want = phold::fingerprint(seq.lps.iter());

    for workers in [1, 2, 4] {
        let ws = product::par_worksteal(p.build(), &edges, t_end, workers);
        assert_eq!(ws.events, seq.events, "worksteal w={workers}");
        assert_eq!(
            phold::fingerprint(ws.lps.iter()),
            want,
            "worksteal w={workers}"
        );
        assert!(ws.lps.iter().all(|lp| lp.monotone));
    }
    let (obs, seen) = product::par_worksteal_observed(p.build(), &edges, t_end, 2);
    assert_eq!(
        (phold::fingerprint(obs.lps.iter()), seen),
        (want, seq.events)
    );

    // thread-per-LP engines on a four-LP instance of the same model
    let small = p.resized(4, p.grain, p.t_end);
    let (edges, t_end) = (small.edges(), SimTime::new(small.t_end));
    let oracle = product::par_sequential(small.build(), &edges, t_end);
    let want = phold::fingerprint(oracle.lps.iter());
    let cmb = product::par_cmb(small.build(), &edges, t_end);
    assert_eq!(
        (cmb.events, phold::fingerprint(cmb.lps.iter())),
        (oracle.events, want)
    );
    let ts = product::par_timestep(small.build(), small.lookahead, t_end);
    assert_eq!(
        (ts.events, phold::fingerprint(ts.lps.iter())),
        (oracle.events, want)
    );
    let tw = product::par_timewarp(small.build(), &edges, t_end, 8.0 * small.lookahead);
    assert_eq!(
        (tw.committed, phold::fingerprint(tw.lps.iter())),
        (oracle.events, want)
    );
}

#[test]
fn pinned_fingerprints_of_the_default_seed_hold() {
    for (workload, pinned) in NAMES.into_iter().zip(PINNED_SMOKE) {
        let got = smoke_trial(workload, runner::DEFAULT_SEED, Mode::Plain)
            .outcome
            .fingerprint;
        assert_eq!(got, pinned, "{workload}: fingerprint is {got:#018x}");
    }
    // the full-size pins are checked by every `run --seed 1`; here only
    // that each workload has one
    for workload in NAMES {
        assert!(
            runner::PINNED
                .iter()
                .any(|(n, fp)| *n == workload && *fp != 0),
            "{workload}"
        );
    }
}

fn benchmark_json() -> Json {
    let path = runner::package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("BENCHMARK.json: {key} is {other:?}"),
    }
}

#[test]
fn benchmark_json_describes_what_the_code_measures() {
    let doc = benchmark_json();
    let str_of = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
    let names: Vec<String> = array(&doc, "workloads")
        .iter()
        .map(|w| str_of(w, "name").expect("workload name"))
        .collect();
    assert_eq!(names, NAMES, "workloads");
    let e2e = array(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (listed, ours) in e2e.iter().zip(END_TO_END) {
        assert_eq!(str_of(listed, "name").as_deref(), Some(ours.name));
        assert_eq!(
            str_of(listed, "unit").as_deref(),
            Some(ours.unit),
            "{}",
            ours.name
        );
        assert_eq!(
            str_of(listed, "better").as_deref(),
            Some(ours.better.name()),
            "{}",
            ours.name
        );
        assert_eq!(
            listed.get("bound").and_then(Json::as_f64),
            Some(ours.bound),
            "{}",
            ours.name
        );
    }
    let layers = array(&doc, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (listed, ours) in layers.iter().zip(PER_LAYER) {
        assert_eq!(str_of(listed, "name").as_deref(), Some(ours.name));
        assert_eq!(
            str_of(listed, "unit").as_deref(),
            Some(ours.unit),
            "{}",
            ours.name
        );
        assert_eq!(
            str_of(listed, "better").as_deref(),
            Some(ours.better.name()),
            "{}",
            ours.name
        );
    }
    let paths: Vec<Option<&str>> = array(&doc, "paths").iter().map(Json::as_str).collect();
    assert_eq!(paths, [Some("benchmark")]);
}

fn fake_trial(wall: f64) -> TrialRecord {
    TrialRecord {
        setup_s: 0.01,
        wall_s: wall,
        ops: 1000.0,
        events: 3000.0,
        fingerprint: 0xabcd,
        rss_kib: 2048.0,
        ..TrialRecord::default()
    }
}

fn fake_run(name: &str, wall: f64) -> WorkloadRun {
    WorkloadRun {
        name: name.to_string(),
        plain: vec![
            fake_trial(wall),
            fake_trial(wall * 1.01),
            fake_trial(wall * 0.99),
        ],
        observed: vec![fake_trial(wall * 1.2)],
        attempted: 4,
        ..WorkloadRun::default()
    }
}

fn plan(workloads: &[&str], per_layer: bool) -> Plan {
    Plan {
        workloads: workloads.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: 1.0,
        end_to_end: !per_layer,
        per_layer,
        size: Size::Smoke,
    }
}

/// Writes the result document of `runs` under `out/selftest/` and returns
/// its path.
fn write_doc(file: &str, runs: Vec<WorkloadRun>) -> String {
    let names: Vec<&str> = runs.iter().map(|r| r.name.as_str()).collect();
    let plan = plan(&names, false);
    let result = RunResult { workloads: runs };
    let dir = runner::out_dir().join("selftest");
    std::fs::create_dir_all(&dir).expect("out/selftest");
    let path = dir.join(file);
    std::fs::write(&path, report::document(&plan, &result).render_pretty()).expect("written");
    path.to_str().expect("UTF-8 path").to_string()
}

#[test]
fn agree_accepts_noise_within_the_bound_and_compare_flags_a_regression() {
    let write = |file: &str, wall: f64| write_doc(file, vec![fake_run("queue_hold", wall)]);
    let (base, near, slow) = (
        write("a.json", 2.0),
        write("b.json", 2.1),
        write("c.json", 2.6),
    );
    assert!(report::agree(&base, &near).expect("readable").holds());
    let found = report::agree(&base, &slow).expect("readable");
    assert!(
        found.disagreements.iter().any(|p| p.contains("wall_s")),
        "{found:?}"
    );
    let (rows, blocking) = report::compare(&base, &slow).expect("readable");
    assert!(blocking >= 1, "{rows:?}");
    assert_eq!(report::compare(&base, &near).expect("readable").1, 0);
}

#[test]
fn agree_and_compare_refuse_failures_gaps_and_unresolved_metrics() {
    let good = || fake_run("queue_hold", 2.0);
    let base = write_doc("d_base.json", vec![good()]);
    let refused = |file: &str, runs: Vec<WorkloadRun>, what: &str| {
        let other = write_doc(file, runs);
        // whichever side the defect is on
        for (a, b) in [(&base, &other), (&other, &base)] {
            let found = report::agree(a, b).expect("readable");
            let lines = found.disagreements.iter().chain(&found.unresolved);
            assert!(
                !found.holds() && lines.clone().any(|p| p.contains(what)),
                "{file}: {found:?} does not mention {what:?}"
            );
        }
        other
    };

    let mut failed = good();
    failed.failures.push("a child timed out".to_string());
    let failed = refused("d_failed.json", vec![failed], "failed trials");
    assert!(report::compare(&base, &failed).expect("readable").1 >= 1);

    refused(
        "d_extra.json",
        vec![good(), fake_run("phold_par", 2.0)],
        "phold_par: in only one",
    );

    let mut unobserved = good();
    unobserved.observed.clear();
    let unobserved = refused(
        "d_gap.json",
        vec![unobserved],
        "observed_wall_s is in only one",
    );
    assert!(report::compare(&base, &unobserved).expect("readable").1 >= 1);

    // trials that spread wider than the bound resolve nothing
    let mut wide = good();
    wide.plain = [1.0, 2.0, 3.0, 4.0].map(fake_trial).to_vec();
    let wide = refused("d_wide.json", vec![wide], "queue_hold: wall_s in");
    assert!(report::agree(&base, &wide)
        .expect("readable")
        .disagreements
        .is_empty());
    let (rows, blocking) = report::compare(&base, &wide).expect("readable");
    assert!(
        blocking >= 1 && rows.iter().any(|r| r.contains("UNRESOLVED")),
        "{rows:?}"
    );
}

/// A `queue_hold` per-layer pass as the children would report it: every
/// metric the catalogue gives that workload, from the trials or a probe.
fn layered_run() -> WorkloadRun {
    let mut run = fake_run("queue_hold", 2.0);
    run.observed.clear();
    let mut traced = fake_trial(2.1);
    for m in PER_LAYER.iter().filter(|m| m.applies_to("queue_hold")) {
        let from_trial = m.name.ends_with(".self_s")
            || m.name == "core.queue.max_len"
            || m.name.starts_with("bench.trace_");
        if from_trial {
            traced.values.insert(m.name.to_string(), 1.0);
        } else if !matches!(
            m.name,
            "core.events" | "core.events_per_s" | "bench.shim_overhead_ratio"
        ) {
            run.probes.insert(m.name.to_string(), 1.0);
        }
    }
    run.traced = vec![traced.clone(), traced];
    run
}

#[test]
fn a_per_layer_pass_fails_on_a_missing_a_misnamed_or_a_wavering_metric() {
    let checked = |mut run: WorkloadRun| {
        run.check(7, Size::Smoke, true);
        run.failures
    };
    assert_eq!(checked(layered_run()), Vec::<String>::new());
    assert_eq!(
        layered_run().per_layer().len(),
        PER_LAYER
            .iter()
            .filter(|m| m.applies_to("queue_hold"))
            .count()
    );

    let mut dropped = layered_run();
    dropped.probes.remove("core.engine.dispatch_ns");
    let failures = checked(dropped);
    assert!(
        failures
            .iter()
            .any(|f| f.contains("core.engine.dispatch_ns has no source")),
        "{failures:?}"
    );

    let mut misnamed = layered_run();
    misnamed
        .probes
        .insert("core.engine.dispatch_nanos".to_string(), 1.0);
    let failures = checked(misnamed);
    assert!(
        failures
            .iter()
            .any(|f| f.contains("core.engine.dispatch_nanos was reported")),
        "{failures:?}"
    );

    // a metric of another workload's pass is as foreign as a misspelt one
    let mut foreign = layered_run();
    foreign.probes.insert("par.engines_agree".to_string(), 1.0);
    assert!(!checked(foreign).is_empty());

    let mut wavering = layered_run();
    wavering.traced[1]
        .values
        .insert("core.queue.max_len".to_string(), 2.0);
    let failures = checked(wavering);
    assert!(
        failures
            .iter()
            .any(|f| f.contains("core.queue.max_len differs")),
        "{failures:?}"
    );

    let mut broken = layered_run();
    for t in &mut broken.traced {
        t.values
            .insert("bench.trace_attributed_ratio".to_string(), 3.0);
    }
    assert!(!checked(broken).is_empty());

    // the contract line carries every catalogued metric; the ones of other
    // workloads' passes read 0
    let result = RunResult {
        workloads: vec![layered_run()],
    };
    let line = report::contract_line(&plan(&["queue_hold"], true), &result);
    let doc = Json::parse(&line).expect("contract line parses");
    let metrics = doc.get("metrics").expect("metrics");
    for m in PER_LAYER {
        let v = metrics
            .get(m.name)
            .and_then(|r| r.get("value"))
            .and_then(Json::as_f64);
        assert!(v.is_some(), "{} missing from the contract line", m.name);
        if !m.applies_to("queue_hold") {
            assert_eq!(v, Some(0.0), "{}", m.name);
        }
    }
}

/// Runs the benchmark binary the way the driver does, at smoke size, and
/// returns its exit status and standard output.
fn run_binary(workload: &str, seed: &str, trace: &str) -> (bool, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lsds-benchmark"))
        .args(["run", "--smoke", "--workload", workload, "--seed", seed])
        .args(["--seconds", "1", "--trace", trace])
        .output()
        .expect("the benchmark binary starts");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

#[test]
fn the_binary_runs_its_children_and_ends_with_the_contract_line() {
    let contract = |workload: &str, seed: &str, trace: &str| -> Json {
        let (ok, stdout) = run_binary(workload, seed, trace);
        assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
        let last = stdout.lines().last().expect("some output");
        let doc = Json::parse(last).unwrap_or_else(|e| panic!("{last}: {e}"));
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{last}");
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(doc.get("attempted").and_then(Json::as_f64) >= Some(2.0));
        doc
    };
    let value = |doc: &Json, name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|r| r.get("value"))
            .and_then(Json::as_f64)
    };

    // end to end: plain and observed children, every bounded metric, none 0
    let doc = contract("queue_hold", "104", "0");
    for m in END_TO_END {
        assert!(value(&doc, m.name) > Some(0.0), "{}", m.name);
    }
    let written = runner::out_dir().join("queue_hold_trace0.json");
    let text = std::fs::read_to_string(&written).expect("result document written");
    let result = Json::parse(&text).expect("result document parses");
    assert_eq!(result.get("size").and_then(Json::as_str), Some("smoke"));

    // per layer: plain, traced and probe children
    let doc = contract("flow_contention", "105", "1");
    for m in PER_LAYER {
        assert!(value(&doc, m.name).is_some(), "{}", m.name);
    }
    assert!(value(&doc, "net.handler.self_s") > Some(0.0));
    assert!(value(&doc, "net.start_us_shared1k") > Some(0.0));
    assert_eq!(value(&doc, "par.engines_agree"), Some(0.0));
    assert!(runner::out_dir()
        .join("trace_flow_contention.json")
        .is_file());

    // a workload that does not exist is refused without a result line
    let (ok, stdout) = run_binary("no_such_workload", "106", "0");
    assert!(!ok && !stdout.contains("\"correct\""), "{stdout}");
}
