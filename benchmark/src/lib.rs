//! Library half of `lsds-benchmark`: the workloads, shims, probes and
//! result handling, so the self-tests under `tests/` drive exactly the
//! code the `lsds-benchmark` binary measures with. `README.md` describes
//! the benchmark; `product.rs` is its only window onto the product crates.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod metrics;
pub mod probes;
pub mod product;
pub mod report;
pub mod runner;
pub mod shim;
pub mod util;
pub mod workloads;
