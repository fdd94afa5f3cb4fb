//! The one source rule no compiler lint expresses, checked over the
//! workspace's tokens. Every other determinism and hot-path rule is a
//! rustc or clippy lint set in the root manifest's `[workspace.lints]`
//! table and `clippy.toml` (DESIGN §7a).
//!
//! `hot-path-vec` bans two patterns from the non-test code of every crate:
//!
//! * `.remove(0)`, an O(n) front pop (use a `VecDeque` or a cursor);
//! * `partial_cmp` inside a `sort_by`, `sort_unstable_by`, `min_by` or
//!   `max_by` comparator, which misorders or panics on NaN (use
//!   `f64::total_cmp` or `Ord`).
//!
//! Non-test code is every line outside a `#[cfg(test)]` or `#[test]` item.
//! Comments and string literals never match: the scan runs on
//! [`crate::lexer`] tokens, not on text.

use crate::lexer::{lex, test_line_ranges, TokKind};

/// Calls whose closure argument is a comparator.
const COMPARATOR_CALLS: [&str; 4] = ["sort_by", "sort_unstable_by", "min_by", "max_by"];

/// The `hot-path-vec` findings in `src`, one `line N: …` message each.
fn hot_path_vec(src: &str) -> Vec<String> {
    let tokens = lex(src);
    let tests = test_line_ranges(&tokens);
    let mut found = Vec::new();
    for (i, dot) in tokens.iter().enumerate() {
        if !dot.is_punct(".") || tests.iter().any(|&(a, b)| (a..=b).contains(&dot.line)) {
            continue;
        }
        let next = &tokens[i + 1..];
        if let [method, open, arg, close, ..] = next {
            if method.is_ident("remove")
                && open.is_punct("(")
                && arg.kind == TokKind::Int
                && arg.text == "0"
                && close.is_punct(")")
            {
                found.push(format!(
                    "line {}: `.remove(0)` shifts the whole vector on every front pop",
                    dot.line
                ));
            }
        }
        let [method, open, ..] = next else { continue };
        if !open.is_punct("(") || !COMPARATOR_CALLS.iter().any(|m| method.is_ident(m)) {
            continue;
        }
        let mut depth = 0usize;
        for t in &next[1..] {
            if t.is_punct("(") {
                depth += 1;
            } else if t.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("partial_cmp") {
                found.push(format!(
                    "line {}: `.{}` comparator uses partial_cmp, which is not a total order",
                    t.line, method.text
                ));
                break;
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::{Path, PathBuf};

    fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    fn fixture(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/lints")
            .join(format!("{name}.rs"));
        fs::read_to_string(path).expect("fixture readable")
    }

    #[test]
    fn hot_path_vec_flags_remove0_and_partial_cmp_sort() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.remove(0);\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        assert_eq!(hot_path_vec(src).len(), 2);
        let clean = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(hot_path_vec(clean).is_empty());
    }

    #[test]
    fn comparators_are_matched_across_lines_and_other_calls() {
        let src = "fn f(v: &[f64]) -> Option<&f64> {\n    v.iter().max_by(|a, b| {\n        a.partial_cmp(b)\n            .unwrap()\n    })\n}";
        assert_eq!(
            hot_path_vec(src),
            ["line 3: `.max_by` comparator uses partial_cmp, which is not a total order"]
        );
        // `remove(i)` and a `partial_cmp` outside any comparator are fine
        let clean = "fn f(v: &mut Vec<f64>, i: usize) -> bool {\n    v.remove(i);\n    v.sort_by(f64::total_cmp);\n    v[0].partial_cmp(&v[1]).is_some()\n}";
        assert!(hot_path_vec(clean).is_empty());
    }

    #[test]
    fn test_code_comments_and_strings_are_exempt() {
        let src = "// v.remove(0)\nfn f() -> &'static str { \"v.remove(0)\" }\n#[cfg(test)]\nmod tests {\n    fn g(v: &mut Vec<u64>) { v.remove(0); }\n}\n";
        assert!(hot_path_vec(src).is_empty());
    }

    #[test]
    fn hot_path_vec_golden() {
        assert_eq!(hot_path_vec(&fixture("hot_vec_pos")).len(), 2);
        assert!(hot_path_vec(&fixture("hot_vec_neg")).is_empty());
    }

    #[test]
    fn no_front_removal_or_partial_cmp_comparators() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
        let mut found = Vec::new();
        for krate in fs::read_dir(&crates).expect("crates directory") {
            let mut files = Vec::new();
            rust_sources(&krate.expect("crate entry").path().join("src"), &mut files);
            for path in files {
                let src = fs::read_to_string(&path).expect("readable source");
                for finding in hot_path_vec(&src) {
                    found.push(format!("{}: {finding}", path.display()));
                }
            }
        }
        assert!(found.is_empty(), "banned patterns:\n{}", found.join("\n"));
    }
}
