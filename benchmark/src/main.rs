//! `lsds-benchmark` — end-to-end and per-layer benchmark of the `lsds`
//! simulation stack. See `README.md` for the workloads, the metrics and
//! how to read a result; `BENCHMARK.json` at the repository root is the
//! machine-readable description.
//!
//! ```text
//! lsds-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! lsds-benchmark agree A.json B.json
//! lsds-benchmark compare PARENT.json CHANGE.json
//! ```
//!
//! `run` without `--workload` measures every workload, end to end and
//! layer by layer, prints every metric by name with its unit and writes
//! `out/result.json`. With `--workload` it measures that one workload —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` — and ends its output with the one-line JSON object the
//! benchmark contract asks for. Either way the exit code is non-zero when
//! a trial or a result check failed. `--smoke` shrinks the inputs to a few
//! milliseconds per trial: the self-tests drive this binary's parent/child
//! path with it.

use lsds_benchmark::report;
use lsds_benchmark::runner::{self, Plan, DEFAULT_SEED};
use lsds_benchmark::workloads::{Mode, Size, NAMES};
use std::path::Path;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: measured time (setups and trials)
/// per workload.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: lsds-benchmark run [--workload W] [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke]\n       lsds-benchmark agree A.json B.json\n       \
                     lsds-benchmark compare PARENT.json CHANGE.json";

fn parse_run(args: &[String]) -> Result<(Plan, bool), String> {
    let mut workload: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace: Option<bool> = None;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {NAMES:?}"));
                }
                workload = Some(w.clone());
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => size = Size::Smoke,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let contract = workload.is_some();
    let plan = Plan {
        workloads: workload.map_or_else(
            || NAMES.iter().map(|s| s.to_string()).collect(),
            |w| vec![w],
        ),
        seed,
        seconds,
        // --trace picks one pass; without it one workload gets the
        // end-to-end pass and a full run gets both
        end_to_end: trace != Some(true),
        per_layer: trace == Some(true) || (!contract && trace.is_none()),
        size,
    };
    Ok((plan, contract))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let (plan, contract) = parse_run(args)?;
    let result = runner::execute(&plan)?;
    report::print_table(&plan, &result);
    let doc = report::document(&plan, &result).render_pretty();
    let file = if contract {
        format!(
            "{}_trace{}.json",
            plan.workloads[0],
            u8::from(plan.per_layer)
        )
    } else {
        "result.json".to_string()
    };
    let path = runner::out_dir().join(file);
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if contract {
        println!("{}", report::contract_line(&plan, &result));
    }
    Ok(result.ok())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        // the two child modes `run` re-executes this binary in
        Some("trial") => {
            let [_, workload, dir, mode] = args else {
                return Err("trial takes WORKLOAD DIR MODE".to_string());
            };
            let mode = Mode::parse(mode).ok_or_else(|| format!("unknown mode {mode}"))?;
            runner::child_trial(workload, Path::new(dir), mode).map(|()| true)
        }
        Some("probes") => {
            let [_, workload] = args else {
                return Err("probes takes WORKLOAD".to_string());
            };
            runner::child_probes(workload);
            Ok(true)
        }
        // prints the text of BENCHMARK.json from the metric catalogue
        Some("describe") => {
            print!("{}", report::benchmark_json(DEFAULT_SECONDS));
            Ok(true)
        }
        Some("agree") => {
            let [_, a, b] = args else {
                return Err("agree takes two result files".to_string());
            };
            let found = report::agree(a, b)?;
            for p in &found.disagreements {
                println!("DISAGREE {p}");
            }
            for p in &found.unresolved {
                println!("UNRESOLVED {p}");
            }
            match (found.disagreements.len(), found.unresolved.len()) {
                (0, 0) => println!("the two runs agree"),
                (0, n) => println!(
                    "the two runs do not contradict each other, but {n} metrics are unresolved: \
                     run with more --seconds"
                ),
                _ => println!("the two runs disagree"),
            }
            Ok(found.holds())
        }
        Some("compare") => {
            let [_, parent, change] = args else {
                return Err("compare takes two result files".to_string());
            };
            let (rows, regressions) = report::compare(parent, change)?;
            for r in rows {
                println!("{r}");
            }
            Ok(regressions == 0)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lsds-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
