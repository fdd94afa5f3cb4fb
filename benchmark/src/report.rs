//! Result documents: building and printing one, and the `agree` and
//! `compare` subcommands that read two of them back.

use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::product::Json;
use crate::runner::{Plan, RunResult, WorkloadRun};
use crate::util::{self, Spread};
use crate::workloads::{self, Size};
use std::collections::BTreeSet;

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn spread_json(unit: &str, better: Better, bound: f64, values: &[f64]) -> Json {
    let s = &Spread::of(values);
    obj(vec![
        ("unit", text(unit)),
        ("better", text(better.name())),
        ("bound", num(bound)),
        ("median", num(s.median)),
        ("min", num(s.min)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("max", num(s.max)),
        ("n", num(s.n as f64)),
        ("iqr_share", num(s.iqr_share())),
        // a metric whose trials spread wider than its bound cannot show a
        // regression of the size of that bound
        ("resolved", Json::Bool(s.iqr_share() <= bound)),
        (
            "trials",
            Json::Arr(values.iter().map(|&v| num(v)).collect()),
        ),
    ])
}

fn workload_json(run: &WorkloadRun, plan: &Plan) -> Json {
    let mut fields = vec![
        ("name", text(&run.name)),
        ("ops_unit", text(workloads::ops_unit(&run.name))),
        (
            "fingerprint",
            run.fingerprint()
                .map_or(Json::Null, |fp| text(&format!("{fp:016x}"))),
        ),
        ("attempted", num(f64::from(run.attempted))),
        ("failed", num(f64::from(run.failed()))),
        (
            "failures",
            Json::Arr(run.failures.iter().map(|f| text(f)).collect()),
        ),
    ];
    if plan.end_to_end {
        let e2e = run
            .end_to_end()
            .into_iter()
            .map(|(m, values)| (m.name, spread_json(m.unit, m.better, m.bound, &values)))
            .collect();
        fields.push(("end_to_end", obj(e2e)));
    }
    if plan.per_layer {
        let layers = run
            .per_layer()
            .into_iter()
            .map(|(m, v)| (m.name, obj(vec![("unit", text(m.unit)), ("value", num(v))])))
            .collect();
        fields.push(("per_layer", obj(layers)));
    }
    obj(fields)
}

/// The full result document of a run.
pub fn document(plan: &Plan, result: &RunResult) -> Json {
    let (cores, load) = util::host_info();
    obj(vec![
        ("schema", text("lsds-benchmark/1")),
        ("seed", num(plan.seed as f64)),
        ("seconds", num(plan.seconds)),
        (
            "size",
            text(match plan.size {
                Size::Full => "full",
                Size::Smoke => "smoke",
            }),
        ),
        ("host_cores", num(cores as f64)),
        ("load_avg_1m", num(load)),
        (
            "workloads",
            Json::Arr(
                result
                    .workloads
                    .iter()
                    .map(|w| workload_json(w, plan))
                    .collect(),
            ),
        ),
    ])
}

/// Prints every metric by name with its unit, one workload after another.
pub fn print_table(plan: &Plan, result: &RunResult) {
    let (cores, load) = util::host_info();
    println!(
        "lsds-benchmark  seed {}  {} s per workload  {} cores  load {:.2}",
        plan.seed, plan.seconds, cores, load
    );
    for run in &result.workloads {
        println!(
            "\n== {}  ({} per op)  fingerprint {}  trials {} failed {}",
            run.name,
            workloads::ops_unit(&run.name),
            run.fingerprint()
                .map_or("DISAGREE".to_string(), |fp| format!("{fp:016x}")),
            run.attempted,
            run.failed()
        );
        for f in &run.failures {
            println!("   FAILED: {f}");
        }
        if plan.end_to_end {
            println!(
                "   {:<18} {:>14} {:<6} {:>12} {:>12} {:>12} {:>12} {:>3}  {:>6}",
                "end-to-end", "median", "unit", "min", "q1", "q3", "max", "n", "iqr"
            );
            for (m, values) in run.end_to_end() {
                let s = Spread::of(&values);
                println!(
                    "   {:<18} {:>14.6} {:<6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>3}  {:>5.1}% {}",
                    m.name,
                    s.median,
                    m.unit,
                    s.min,
                    s.q1,
                    s.q3,
                    s.max,
                    s.n,
                    100.0 * s.iqr_share(),
                    if s.iqr_share() > m.bound {
                        "unresolved"
                    } else {
                        ""
                    }
                );
            }
        }
        if plan.per_layer {
            println!("   {:<40} {:>16} unit", "per-layer", "value");
            for (m, v) in run.per_layer() {
                println!("   {:<40} {:>16.6} {}", m.name, v, m.unit);
            }
        }
    }
}

/// The one-line object the benchmark contract asks for. The contract
/// wants every per-layer metric on every workload, so a metric the
/// catalogue does not give this workload (`PerLayer::on`) is printed as 0;
/// one it does give it and no source supplied has already failed the run.
pub fn contract_line(plan: &Plan, result: &RunResult) -> String {
    let run = &result.workloads[0];
    let reading = |v: f64, unit: &str| obj(vec![("value", num(v)), ("unit", text(unit))]);
    let metrics: Vec<(String, Json)> = if plan.per_layer {
        let measured = run.per_layer();
        PER_LAYER
            .iter()
            .map(|m| {
                let v = measured
                    .iter()
                    .find(|(have, _)| have.name == m.name)
                    .map_or(0.0, |&(_, v)| v);
                (m.name.to_string(), reading(v, m.unit))
            })
            .collect()
    } else {
        run.end_to_end()
            .into_iter()
            .map(|(m, values)| (m.name.to_string(), reading(util::median(&values), m.unit)))
            .collect()
    };
    obj(vec![
        ("correct", Json::Bool(run.failed() == 0)),
        ("attempted", num(f64::from(run.attempted.max(1)))),
        ("failed", num(f64::from(run.failed()))),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// The text of `BENCHMARK.json`, from the catalogue in `metrics.rs` — the
/// file at the repository root is this function's output, so the two
/// cannot drift apart unnoticed (a self-test compares them).
pub fn benchmark_json(run_seconds: f64) -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| text(s)).collect());
    obj(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", num(run_seconds)),
        (
            "workloads",
            Json::Arr(
                workloads::NAMES
                    .iter()
                    .zip(workloads::WHY)
                    .map(|(name, why)| obj(vec![("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.name())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("lsds-benchmark/1") {
        return Err(format!("{path}: not an lsds-benchmark/1 result document"));
    }
    Ok(doc)
}

fn workloads_of(doc: &Json) -> Vec<&Json> {
    match doc.get("workloads") {
        Some(Json::Arr(ws)) => ws.iter().collect(),
        _ => Vec::new(),
    }
}

fn named<'a>(ws: &[&'a Json], name: &str) -> Option<&'a Json> {
    ws.iter()
        .copied()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn fields(v: Option<&Json>) -> Vec<(&str, &Json)> {
    match v {
        Some(Json::Obj(f)) => f.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => Vec::new(),
    }
}

fn key_set(v: Option<&Json>) -> BTreeSet<String> {
    fields(v).into_iter().map(|(k, _)| k.to_string()).collect()
}

/// What `agree` found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Agreement {
    /// Where the two documents contradict each other or one of them holds
    /// a failure.
    pub disagreements: Vec<String>,
    /// End-to-end metrics whose trials, in one of the documents, spread
    /// wider than their bound: that run resolved nothing about them, so
    /// the two medians being close proves nothing either.
    pub unresolved: Vec<String>,
}

impl Agreement {
    /// The two runs agree: nothing contradicts and nothing is unresolved.
    pub fn holds(&self) -> bool {
        self.disagreements.is_empty() && self.unresolved.is_empty()
    }

    /// What is wrong with one workload of one document, whatever it is
    /// compared with.
    fn check_own(&mut self, w: &Json, name: &str, path: &str) {
        if w.get("failed").and_then(Json::as_f64) != Some(0.0) {
            self.disagreements
                .push(format!("{name}: failed trials or checks in {path}"));
        }
        for (metric, v) in fields(w.get("end_to_end")) {
            if v.get("resolved") != Some(&Json::Bool(true)) {
                let share = v
                    .get("iqr_share")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                self.unresolved.push(format!(
                    "{name}: {metric} in {path} (its trials spread {:.1}% of the median)",
                    100.0 * share
                ));
            }
        }
    }
}

/// `agree A B`: two result documents of one commit and one seed agree when
/// both hold the same workloads and metrics, no trial or check failed in
/// either, every end-to-end metric is resolved in both (its trials' spread
/// within its bound) and its two medians are within the bound of each
/// other, and every exact count and fingerprint is equal.
pub fn agree(a_path: &str, b_path: &str) -> Result<Agreement, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut found = Agreement::default();
    let out = &mut found.disagreements;
    if a.get("seed") != b.get("seed") {
        out.push("the two runs used different seeds".to_string());
    }
    let (wa, wb) = (workloads_of(&a), workloads_of(&b));
    let names = |ws: &[&Json]| -> BTreeSet<String> {
        ws.iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .map(str::to_string)
            .collect()
    };
    for name in names(&wa).union(&names(&wb)) {
        let (Some(w), Some(other)) = (named(&wa, name), named(&wb, name)) else {
            found
                .disagreements
                .push(format!("{name}: in only one of the two documents"));
            continue;
        };
        found.check_own(w, name, a_path);
        found.check_own(other, name, b_path);
        let out = &mut found.disagreements;
        if w.get("fingerprint") != other.get("fingerprint") {
            out.push(format!("{name}: fingerprints differ"));
        }
        for section in ["end_to_end", "per_layer"] {
            let (ka, kb) = (key_set(w.get(section)), key_set(other.get(section)));
            for metric in ka.symmetric_difference(&kb) {
                out.push(format!(
                    "{name}: {metric} is in only one of the two documents"
                ));
            }
        }
        for (metric, va) in fields(w.get("end_to_end")) {
            let Some(vb) = other.get("end_to_end").and_then(|e| e.get(metric)) else {
                continue;
            };
            let median = |v: &Json| v.get("median").and_then(Json::as_f64);
            let bound = va.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            match (median(va), median(vb)) {
                (Some(x), Some(y)) => {
                    let off = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
                    if off > bound {
                        out.push(format!(
                            "{name}: {metric} medians {x} and {y} differ by {:.1}% (bound {:.0}%)",
                            100.0 * off,
                            100.0 * bound
                        ));
                    }
                }
                _ => out.push(format!("{name}: {metric} has no median")),
            }
        }
        for (metric, va) in fields(w.get("per_layer")) {
            let vb = other.get("per_layer").and_then(|p| p.get(metric));
            let exact = metrics::per_layer(metric).is_some_and(|m| m.exact);
            if exact && vb.is_some() && va.get("value") != vb.and_then(|v| v.get("value")) {
                out.push(format!("{name}: count {metric} differs"));
            }
        }
    }
    Ok(found)
}

/// `compare PARENT CHANGE`: one row per workload × end-to-end metric, the
/// change's median over the parent's, with its base. Returns the printed
/// rows and the number of rows that stand in the way of accepting the
/// change: a metric worse by more than its bound, one whose spread in
/// either run is wider than the bound (unresolved: it can show neither a
/// regression nor its absence), a changed fingerprint, a workload or
/// metric missing on one side, failed trials or checks in the change.
pub fn compare(parent_path: &str, change_path: &str) -> Result<(Vec<String>, usize), String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    let (wp, wc) = (workloads_of(&parent), workloads_of(&change));
    let mut rows = vec![format!(
        "{:<16} {:<16} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "parent", "change", "ratio"
    )];
    let mut blocking = 0;
    for w in &wc {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        if named(&wp, name).is_none() {
            rows.push(format!("{name:<16} missing from {parent_path}"));
            blocking += 1;
        }
    }
    for w in &wp {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(other) = named(&wc, name) else {
            rows.push(format!("{name:<16} missing from {change_path}"));
            blocking += 1;
            continue;
        };
        if other.get("failed").and_then(Json::as_f64) != Some(0.0) {
            rows.push(format!(
                "{name:<16} failed trials or checks in {change_path}"
            ));
            blocking += 1;
        }
        if w.get("fingerprint") != other.get("fingerprint") {
            rows.push(format!("{name:<16} result fingerprint changed"));
            blocking += 1;
        }
        let (kp, kc) = (
            key_set(w.get("end_to_end")),
            key_set(other.get("end_to_end")),
        );
        for metric in kp.symmetric_difference(&kc) {
            rows.push(format!(
                "{name:<16} {metric:<16} is in only one of the two documents"
            ));
            blocking += 1;
        }
        for (metric, vp) in fields(w.get("end_to_end")) {
            let Some(vc) = other.get("end_to_end").and_then(|e| e.get(metric)) else {
                continue;
            };
            let get = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64);
            let (Some(p), Some(c)) = (get(vp, "median"), get(vc, "median")) else {
                rows.push(format!("{name:<16} {metric:<16} has no median"));
                blocking += 1;
                continue;
            };
            let bound = get(vp, "bound").unwrap_or(0.0);
            let higher_better = vp.get("better").and_then(Json::as_str) == Some("higher");
            let ratio = c / p;
            let worse_by = if higher_better {
                1.0 - ratio
            } else {
                ratio - 1.0
            };
            let spread = get(vp, "iqr_share")
                .unwrap_or(f64::INFINITY)
                .max(get(vc, "iqr_share").unwrap_or(f64::INFINITY));
            let verdict = if spread > bound {
                blocking += 1;
                "UNRESOLVED (spread wider than the bound: run both again)"
            } else if worse_by > bound {
                blocking += 1;
                "REGRESSED"
            } else if -worse_by > spread.max(0.01) {
                "better"
            } else {
                "same"
            };
            rows.push(format!(
                "{name:<16} {metric:<16} {p:>14.6} {c:>14.6} {ratio:>8.3}  {verdict} (base {p:.6} {})",
                vp.get("unit").and_then(Json::as_str).unwrap_or("")
            ));
        }
    }
    Ok((rows, blocking))
}
