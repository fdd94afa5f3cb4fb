//! `lsds-trace` — input modalities and output data series.
//!
//! The taxonomy classifies simulators by *input data* — "including input
//! data generators or … accepting data sets collected by monitoring. For
//! example, MONARC 2 accepts both types of input (the monitoring data
//! format is the one produced by MonALISA), while ChicagoSim accepts only
//! input data generators" (§3) — and by *output/UI* (textual output, plot
//! series, output analyzers).
//!
//! * [`record`] — a MonALISA-style monitoring record and trace container;
//! * [`generator`] — synthetic workload generators that *emit* traces, so
//!   a generated workload can be saved and replayed as monitored data;
//! * [`json`] — a minimal in-tree JSON reader/writer (offline build);
//! * [`io`] — JSON-lines persistence (read/write);
//! * [`export`] — JSON export of [`lsds_obs`] metrics snapshots and
//!   Chrome trace-event export of span traces;
//! * [`series`] — plot series, CSV emission, and aligned text tables for
//!   the experiment binaries (the "textual output" end of the UI axis);
//! * [`plot`] — terminal bar charts and scatter canvases (the "visual
//!   output analyzer" end).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
pub mod generator;
pub mod io;
pub mod json;
pub mod plot;
pub mod record;
pub mod series;

pub use export::{
    chrome_trace_to_string, snapshot_to_json_string, validate_chrome_trace, write_chrome_trace,
};
pub use generator::WorkloadGenerator;
pub use io::{read_trace, write_trace};
pub use json::Json;
pub use plot::{BarChart, ScatterPlot};
pub use record::{MonitorRecord, Trace};
pub use series::{Series, TextTable};
