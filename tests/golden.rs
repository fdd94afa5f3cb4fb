//! Golden fixture tests for the workspace's determinism and hot-path rules:
//! one positive fixture per rule that must be rejected, one negative
//! fixture that must pass.
//!
//! The lint-based rules run `clippy-driver` on each fixture under
//! `tests/fixtures/lints/` as a one-file crate, configured as the workspace
//! configures its own code: the levels of the root manifest's
//! `[workspace.lints]` tables, `clippy.toml`, `-D warnings` as in CI, and
//! the inner `#![…]` attributes of `lsds-core`'s crate root and of its
//! `queue` module, a hot path the fixture stands in for. The
//! `lookahead-contract` rule is the runtime assertion in `LpCtx::send` and
//! runs its fixture models here; `rollback-safety` is pinned by
//! `crates/parallel/tests/parallel_properties.rs` and `hot-path-vec` by the
//! token scan in `src/rules.rs`.
//!
//! Needs the toolchain's `clippy` component.

use lsds_core::{InitialEvents, LogicalProcess, LpCore, LpCtx, SimTime};
use lsds_prof::NoopTracer;
use lsds_trace::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The product files a fixture stands in for: crate root, then module.
const SCOPE: [&str; 2] = ["crates/core/src/lib.rs", "crates/core/src/queue/mod.rs"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `key = "value"` entries of table `[name]` in the root manifest.
fn manifest_table(name: &str) -> Vec<(String, String)> {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    let header = format!("[{name}]");
    let mut inside = false;
    let mut entries = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if inside && !line.is_empty() && !line.starts_with('#') {
            let (key, value) = line.split_once('=').expect("`key = value` entry");
            let value = value.trim().trim_matches('"');
            entries.push((key.trim().to_string(), value.to_string()));
        }
    }
    entries
}

/// Command-line lint flags equivalent to the `[workspace.lints]` tables.
fn workspace_lint_flags() -> Vec<String> {
    let mut flags = Vec::new();
    for (table, prefix) in [("rust", ""), ("clippy", "clippy::")] {
        for (lint, level) in manifest_table(&format!("workspace.lints.{table}")) {
            let flag = match level.as_str() {
                "forbid" => "-F",
                "deny" => "-D",
                "warn" => "-W",
                "allow" => "-A",
                other => panic!("lint `{lint}`: level `{other}` not understood"),
            };
            flags.push(flag.to_string());
            flags.push(format!("{prefix}{lint}"));
        }
    }
    flags
}

/// The inner attributes (`#![…]` items) of workspace file `rel`.
fn inner_attributes(rel: &str) -> String {
    let text = fs::read_to_string(root().join(rel)).expect("scope file readable");
    let mut attrs = String::new();
    let mut depth = 0usize;
    for line in text.lines() {
        if depth == 0 && !line.starts_with("#![") {
            continue;
        }
        depth += line.matches('[').count();
        depth -= line.matches(']').count();
        attrs.push_str(line);
        attrs.push('\n');
    }
    attrs
}

/// The toolchain's `clippy-driver`: next to the `cargo` that built this
/// test, else the one on `PATH`.
fn clippy_driver() -> PathBuf {
    let name = format!("clippy-driver{}", std::env::consts::EXE_SUFFIX);
    let beside_cargo = Path::new(env!("CARGO")).with_file_name(&name);
    if beside_cargo.exists() {
        beside_cargo
    } else {
        PathBuf::from(name)
    }
}

/// Lints `source` as fixture `name` pasted into [`SCOPE`] and returns the
/// codes of the errors reported, sorted and deduplicated: empty exactly
/// when the fixture passes the gate.
fn lint_source(name: &str, source: &str) -> Vec<String> {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("lint-{}", RUN.fetch_add(1, Ordering::Relaxed)));
    fs::create_dir_all(&dir).expect("scratch directory");
    let file = dir.join(format!("{name}.rs"));
    let attrs: String = SCOPE.iter().map(|rel| inner_attributes(rel)).collect();
    fs::write(&file, attrs + source).expect("fixture copy written");
    let edition = manifest_table("workspace.package")
        .into_iter()
        .find_map(|(key, value)| (key == "edition").then_some(value))
        .expect("workspace edition");
    let out = Command::new(clippy_driver())
        .env("CLIPPY_CONF_DIR", root())
        .args(["--edition", &edition, "--crate-type", "lib"])
        .args(["--emit", "metadata", "--error-format", "json", "--out-dir"])
        .arg(&dir)
        .args(workspace_lint_flags())
        .args(["-D", "warnings"])
        .arg(&file)
        .output()
        .expect("clippy-driver runs (rustup component add clippy)");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut codes: Vec<String> = stderr
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|d| d.get("level").and_then(Json::as_str) == Some("error"))
        .filter_map(|d| Some(d.get("code")?.get("code")?.as_str()?.to_string()))
        .collect();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(
        out.status.success(),
        codes.is_empty(),
        "{name}: exit status and reported errors disagree:\n{stderr}"
    );
    codes
}

/// The text of fixture `tests/fixtures/lints/{name}.rs`.
fn fixture(name: &str) -> String {
    let path = root().join(format!("tests/fixtures/lints/{name}.rs"));
    fs::read_to_string(path).expect("fixture readable")
}

/// [`lint_source`] on fixture `name`.
fn lint(name: &str) -> Vec<String> {
    lint_source(name, &fixture(name))
}

#[test]
fn hash_iter_golden() {
    assert_eq!(
        lint("hash_iter_pos"),
        ["clippy::disallowed_methods", "clippy::iter_over_hash_type"]
    );
    // a `for` loop over the map itself calls no banned method
    let bare_loop = fixture("hash_iter_pos").replace("in m.iter()", "in m");
    assert_eq!(
        lint_source("hash_iter_loop", &bare_loop),
        ["clippy::iter_over_hash_type"]
    );
    assert!(
        lint("hash_iter_neg").is_empty(),
        "lookups and ordered maps must pass"
    );
}

#[test]
fn wall_clock_golden() {
    assert_eq!(lint("wall_clock_pos"), ["clippy::disallowed_methods"]);
    assert!(lint("wall_clock_neg").is_empty());
}

#[test]
fn float_eq_golden() {
    assert_eq!(lint("float_eq_pos"), ["clippy::float_cmp"]);
    assert!(
        lint("float_eq_neg").is_empty(),
        "zero-guards and integer equality must not trip float_cmp"
    );
}

#[test]
fn hot_path_panic_golden() {
    assert_eq!(lint("hot_panic_pos"), ["clippy::expect_used"]);
    assert!(
        lint("hot_panic_neg").is_empty(),
        "let-else with debug_assert is the sanctioned pattern"
    );
}

#[test]
fn missing_docs_golden() {
    assert_eq!(lint("missing_docs_pos"), ["missing_docs"]);
    assert!(lint("missing_docs_neg").is_empty());
}

#[test]
fn determinism_taint_golden() {
    // an address cast into a routing key
    assert_eq!(lint("det_taint_pos"), ["clippy::ref_as_ptr"]);
    // hash iteration collected into a Vec fails at its source, `.keys()`
    assert_eq!(lint("det_taint_launder"), ["clippy::disallowed_methods"]);
    assert!(
        lint("det_taint_neg").is_empty(),
        "ordered iteration and order-free accessors must pass"
    );
}

#[test]
fn justified_pragma_suppresses() {
    assert!(lint("pragma_ok").is_empty());
}

#[test]
fn justified_pragma_suppresses_semantic_rules() {
    assert!(lint("pragma_sem_ok").is_empty());
}

/// A suppression without a reason is an error of its own, so the gate
/// fails with it exactly as it would without it: it buys nothing. A bare
/// `#[allow]` is rejected twice over.
#[test]
fn pragma_without_reason_is_error_and_suppresses_nothing() {
    assert_eq!(
        lint("pragma_bad"),
        ["clippy::allow_attributes_without_reason"]
    );
    let bare = fixture("pragma_bad").replace("#[expect(", "#[allow(");
    assert_eq!(
        lint_source("pragma_bad_allow", &bare),
        [
            "clippy::allow_attributes",
            "clippy::allow_attributes_without_reason"
        ]
    );
}

#[test]
fn stale_pragma_is_reported() {
    assert_eq!(lint("pragma_unused"), ["unfulfilled_lint_expectations"]);
}

#[test]
fn deny_gate_fails_each_positive_fixture() {
    // `hot_vec_pos` is checked by `src/rules.rs`, the lookahead model below
    for name in [
        "hash_iter_pos",
        "wall_clock_pos",
        "float_eq_pos",
        "hot_panic_pos",
        "missing_docs_pos",
        "pragma_bad",
        "pragma_unused",
        "det_taint_pos",
        "det_taint_launder",
    ] {
        assert!(!lint(name).is_empty(), "{name} must fail the gate");
    }
}

#[test]
fn deny_gate_passes_each_negative_fixture() {
    for name in [
        "hash_iter_neg",
        "wall_clock_neg",
        "float_eq_neg",
        "hot_panic_neg",
        "hot_vec_neg",
        "missing_docs_neg",
        "pragma_ok",
        "det_taint_neg",
        "pragma_sem_ok",
    ] {
        assert_eq!(
            lint(name),
            Vec::<String>::new(),
            "{name} must pass the gate"
        );
    }
}

const LINK_LA: f64 = 0.5;

/// Lookahead fixture model: declares [`LINK_LA`] and, on its one event,
/// sends along `0 → 1` once per entry of `delays`.
struct Router {
    delays: Vec<f64>,
}

impl LogicalProcess for Router {
    type Msg = u64;
    fn handle(&mut self, _now: SimTime, msg: u64, ctx: &mut LpCtx<'_, u64>) {
        for &delay in &self.delays {
            ctx.send(1, delay, msg);
        }
    }
    fn lookahead(&self) -> f64 {
        LINK_LA
    }
}

impl InitialEvents for Router {
    fn initial_events(&mut self, ctx: &mut LpCtx<'_, u64>) {
        ctx.schedule_in(0.0, 7);
    }
}

/// Runs a [`Router`] as LP 0 through its one event on the delivery kernel
/// every engine shares, and returns the send times.
fn send_times(delays: Vec<f64>) -> Vec<f64> {
    let mut core = LpCore::new(0, Router { delays }, vec![1], NoopTracer);
    let mut sent = Vec::new();
    core.init(|_, _, ev| sent.push(ev.time.seconds()));
    core.step(|_, _, ev| sent.push(ev.time.seconds()));
    sent
}

#[test]
fn lookahead_contract_golden() {
    // positive: a literal delay below the lookahead the const declares
    let panic = std::panic::catch_unwind(|| send_times(vec![0.1]))
        .expect_err("a send below the declared lookahead must panic");
    let message = panic
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert_eq!(message, "send delay 0.1 below lookahead 0.5");
    // negative: delays at or above it
    let delays = vec![LINK_LA, 0.75, LINK_LA + 0.125];
    assert_eq!(send_times(delays), [0.5, 0.75, 0.625]);
}
