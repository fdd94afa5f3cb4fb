//! Command-line robustness of the experiment binaries: a bad flag is a
//! one-line usage error on stderr and exit status 2, never a panic.

use std::process::Command;

#[test]
fn exp_parallel_rejects_a_bad_workers_value() {
    for bad in [&["--workers", "abc"][..], &["--workers"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_parallel"))
            .args(bad)
            .output()
            .expect("spawn exp_parallel");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("usage: exp_parallel") && err.lines().count() == 1,
            "{bad:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{bad:?} still ran the experiment");
    }
}
