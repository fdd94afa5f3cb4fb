//! JSON export of observability snapshots and span traces.
//!
//! Renders an [`lsds_obs::Snapshot`] as a single JSON document — the
//! MonALISA-style "repository" view of a run: every counter, gauge,
//! time-weighted series (with its retained step points), and value
//! summary, keyed by metric name — and an [`lsds_obs::SpanTrace`], with
//! any telemetry counter tracks, as a Chrome trace-event document.

use crate::json::Json;
use lsds_obs::{CounterTrack, Snapshot, SpanTrace, NO_PARENT, NO_TAG};
use std::io::{self, Write};

/// Converts a metrics snapshot into a JSON value.
///
/// Layout:
///
/// ```json
/// {
///   "at": 3600.0,
///   "counters": {"engine.events": 120},
///   "gauges": {"engine.clock": 3600.0},
///   "series": {
///     "net.link.T0-T1.utilization": {
///       "value": 0.4, "max": 1.0, "average": 0.62,
///       "points": [[0.0, 0.0], [12.5, 1.0]]
///     }
///   },
///   "summaries": {
///     "net.transfer_latency": {"count": 40, "mean": 2.1, "min": 0.4, "max": 9.0,
///                              "p50": 1.8, "p95": 7.2, "p99": 8.8}
///   }
/// }
/// ```
fn snapshot_to_json(snap: &Snapshot) -> Json {
    let counters = snap
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(k, v)| (k.clone(), Json::Num(*v)))
        .collect();
    let series = snap
        .series
        .iter()
        .map(|s| {
            let points = s
                .points
                .iter()
                .map(|(t, v)| Json::Arr(vec![Json::Num(*t), Json::Num(*v)]))
                .collect();
            (
                s.name.clone(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(s.value)),
                    ("max".to_string(), Json::Num(s.max)),
                    ("average".to_string(), Json::Num(s.average)),
                    ("points".to_string(), Json::Arr(points)),
                ]),
            )
        })
        .collect();
    let summaries = snap
        .summaries
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                Json::Obj(vec![
                    ("count".to_string(), Json::Num(s.count as f64)),
                    ("mean".to_string(), Json::Num(s.mean)),
                    ("min".to_string(), Json::Num(s.min)),
                    ("max".to_string(), Json::Num(s.max)),
                    ("p50".to_string(), Json::Num(s.p50)),
                    ("p95".to_string(), Json::Num(s.p95)),
                    ("p99".to_string(), Json::Num(s.p99)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("at".to_string(), Json::Num(snap.at)),
        ("counters".to_string(), Json::Obj(counters)),
        ("gauges".to_string(), Json::Obj(gauges)),
        ("series".to_string(), Json::Obj(series)),
        ("summaries".to_string(), Json::Obj(summaries)),
    ])
}

/// Pretty-printed snapshot JSON (ends with a newline).
pub fn snapshot_to_json_string(snap: &Snapshot) -> String {
    snapshot_to_json(snap).render_pretty()
}

/// Converts a causal span trace and telemetry counter tracks into Chrome
/// trace-event JSON.
///
/// The document loads directly in `chrome://tracing` and Perfetto: one
/// complete event (`"ph": "X"`) per span, with virtual time mapped to the
/// microsecond timeline (`ts = vt · 1e6`), host handler cost as the slice
/// duration (`dur`, µs), and one named thread per track (entity, site, or
/// LP). Event ids and parents ride in `args` as decimal strings — they are
/// `u64` tie keys that would lose precision as JSON numbers.
///
/// Each [`CounterTrack`] becomes a run of counter events (`"ph": "C"`) on
/// the same timeline, with the sampled value in `args.value`. Counter
/// events on lane 0 keep the bare counter name; other lanes get a
/// `name[track]` suffix so per-LP or per-worker lanes render as separate
/// counter tracks in Perfetto (which keys counters by `(pid, name)`).
fn chrome_trace_json_with_counters(trace: &SpanTrace, counters: &[CounterTrack]) -> Json {
    let mut tracks: Vec<u32> = trace.spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut events = Vec::with_capacity(trace.spans.len() + tracks.len());
    for track in tracks {
        events.push(Json::Obj(vec![
            ("name".to_string(), Json::Str("thread_name".to_string())),
            ("ph".to_string(), Json::Str("M".to_string())),
            ("pid".to_string(), Json::Num(0.0)),
            ("tid".to_string(), Json::Num(track as f64)),
            (
                "args".to_string(),
                Json::Obj(vec![(
                    "name".to_string(),
                    Json::Str(format!("track-{track}")),
                )]),
            ),
        ]));
    }
    for s in &trace.spans {
        let mut args = vec![
            ("event_id".to_string(), Json::Str(s.id.to_string())),
            ("wall_ns".to_string(), Json::Num(s.wall_ns as f64)),
        ];
        if s.parent != NO_PARENT {
            args.push(("parent".to_string(), Json::Str(s.parent.to_string())));
        }
        if s.kind.tag != NO_TAG {
            args.push(("tag".to_string(), Json::Str(s.kind.tag.to_string())));
        }
        events.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(s.kind.name.to_string())),
            ("ph".to_string(), Json::Str("X".to_string())),
            ("ts".to_string(), Json::Num(s.vt * 1e6)),
            ("dur".to_string(), Json::Num(s.wall_ns as f64 / 1000.0)),
            ("pid".to_string(), Json::Num(0.0)),
            ("tid".to_string(), Json::Num(s.track as f64)),
            ("args".to_string(), Json::Obj(args)),
        ]));
    }
    for c in counters {
        let name = if c.track == 0 {
            c.name.clone()
        } else {
            format!("{}[{}]", c.name, c.track)
        };
        for &(vt, v) in &c.points {
            events.push(Json::Obj(vec![
                ("name".to_string(), Json::Str(name.clone())),
                ("ph".to_string(), Json::Str("C".to_string())),
                ("ts".to_string(), Json::Num(vt * 1e6)),
                ("pid".to_string(), Json::Num(0.0)),
                ("tid".to_string(), Json::Num(c.track as f64)),
                (
                    "args".to_string(),
                    Json::Obj(vec![("value".to_string(), Json::Num(v))]),
                ),
            ]));
        }
    }
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
        ("dropped_spans".to_string(), Json::Num(trace.dropped as f64)),
    ])
}

/// Compact Chrome trace-event JSON of the spans alone (ends with a
/// newline).
pub fn chrome_trace_to_string(trace: &SpanTrace) -> String {
    let mut s = chrome_trace_json_with_counters(trace, &[]).render();
    s.push('\n');
    s
}

/// Writes the compact Chrome trace-event JSON of the spans and the
/// counter tracks (pass `&[]` for none) to `w`, ending with a newline.
pub fn write_chrome_trace(
    trace: &SpanTrace,
    counters: &[CounterTrack],
    mut w: impl Write,
) -> io::Result<()> {
    let doc = chrome_trace_json_with_counters(trace, counters).render();
    writeln!(w, "{doc}")
}

/// Parses a Chrome trace-event document, checking that each span slice
/// (`"ph": "X"`) carries the fields the viewers require (numeric `ts`,
/// `dur`, `pid`, `tid`, and a `name`) and each counter event
/// (`"ph": "C"`) numeric `ts`, `pid`, `tid`, a `name` and a numeric
/// `args.value`. Returns `(span slices, counter samples)`, or a
/// description of the first malformed event.
pub fn validate_chrome_trace(text: &str) -> Result<(usize, usize), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    let mut slices = 0;
    let mut samples = 0;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let fields: &[&str] = match ph {
            "X" => &["ts", "dur", "pid", "tid"],
            "C" => &["ts", "pid", "tid"],
            _ => continue,
        };
        for field in fields {
            if ev.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("event {i}: missing numeric {field}"));
            }
        }
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing name"));
        }
        if ph == "C" {
            if ev
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64)
                .is_none()
            {
                return Err(format!("event {i}: counter missing numeric args.value"));
            }
            samples += 1;
        } else {
            slices += 1;
        }
    }
    Ok((slices, samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsds_obs::Registry;

    fn sample() -> Snapshot {
        let mut reg = Registry::new();
        reg.inc("engine.events", 12);
        reg.set_gauge("engine.clock", 5.0);
        reg.series_update("site.cpu", 0.0, 0.0);
        reg.series_update("site.cpu", 2.0, 4.0);
        reg.observe("latency", 1.0);
        reg.observe("latency", 3.0);
        reg.snapshot(10.0)
    }

    #[test]
    fn export_covers_all_families() {
        let json = snapshot_to_json(&sample());
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("engine.events"))
                .and_then(Json::as_f64),
            Some(12.0)
        );
        assert_eq!(
            json.get("gauges")
                .and_then(|g| g.get("engine.clock"))
                .and_then(Json::as_f64),
            Some(5.0)
        );
        let series = json.get("series").and_then(|s| s.get("site.cpu")).unwrap();
        assert_eq!(series.get("value").and_then(Json::as_f64), Some(4.0));
        assert_eq!(series.get("max").and_then(Json::as_f64), Some(4.0));
        let sum = json
            .get("summaries")
            .and_then(|s| s.get("latency"))
            .unwrap();
        assert_eq!(sum.get("count").and_then(Json::as_f64), Some(2.0));
        assert_eq!(sum.get("mean").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn export_parses_back() {
        let text = snapshot_to_json_string(&sample());
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("at").and_then(Json::as_f64), Some(10.0));
    }

    #[test]
    fn summaries_carry_percentiles() {
        let json = snapshot_to_json(&sample());
        let sum = json
            .get("summaries")
            .and_then(|s| s.get("latency"))
            .unwrap();
        for field in ["p50", "p95", "p99"] {
            assert!(
                sum.get(field).and_then(Json::as_f64).is_some(),
                "missing {field}"
            );
        }
    }

    fn span(id: u64, parent: u64, track: u32, vt: f64, kind: lsds_obs::SpanKind) -> lsds_obs::Span {
        lsds_obs::Span {
            id,
            parent,
            track,
            vt,
            wall_ns: 1500,
            kind,
        }
    }

    fn sample_trace() -> SpanTrace {
        let mut t = SpanTrace::new();
        t.spans
            .push(span(0, NO_PARENT, 0, 0.0, lsds_obs::SpanKind::new("boot")));
        t.spans
            .push(span(1, 0, 1, 2.5, lsds_obs::SpanKind::tagged("work", 7)));
        t
    }

    #[test]
    fn chrome_trace_round_trips_with_required_fields() {
        let text = chrome_trace_to_string(&sample_trace());
        assert_eq!(validate_chrome_trace(&text), Ok((2, 0)));
        let doc = Json::parse(&text).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        // one thread_name metadata record per distinct track, then slices
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        let slice = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("work"))
            .unwrap();
        assert_eq!(slice.get("ts").and_then(Json::as_f64), Some(2.5e6));
        assert_eq!(slice.get("dur").and_then(Json::as_f64), Some(1.5));
        assert_eq!(slice.get("tid").and_then(Json::as_f64), Some(1.0));
        let args = slice.get("args").unwrap();
        assert_eq!(args.get("event_id").and_then(Json::as_str), Some("1"));
        assert_eq!(args.get("parent").and_then(Json::as_str), Some("0"));
        assert_eq!(args.get("tag").and_then(Json::as_str), Some("7"));
    }

    #[test]
    fn counter_tracks_export_as_c_events() {
        let counters = vec![
            CounterTrack {
                name: "tw.gvt_lag".to_string(),
                track: 0,
                points: vec![(0.5, 0.1), (1.0, 0.3)],
            },
            CounterTrack {
                name: "ws.deque_len".to_string(),
                track: 3,
                points: vec![(2.0, 7.0)],
            },
        ];
        let mut doc = Vec::new();
        write_chrome_trace(&sample_trace(), &counters, &mut doc).unwrap();
        let text = String::from_utf8(doc).unwrap();
        assert_eq!(validate_chrome_trace(&text), Ok((2, 3)));
        let doc = Json::parse(&text).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        let c0 = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("tw.gvt_lag"))
            .unwrap();
        assert_eq!(c0.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(c0.get("ts").and_then(Json::as_f64), Some(0.5e6));
        let args = c0.get("args").unwrap();
        assert_eq!(args.get("value").and_then(Json::as_f64), Some(0.1));
        // Non-zero lanes carry the lane suffix so Perfetto separates them.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("ws.deque_len[3]")));
    }

    #[test]
    fn validate_full_rejects_counter_without_value() {
        let bad = "{\"traceEvents\": [{\"ph\": \"C\", \"name\": \"c\", \"ts\": 1, \
                    \"pid\": 0, \"tid\": 0, \"args\": {}}]}";
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("args.value"));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"a\": 1}").is_err());
        let no_ts = "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"x\"}]}";
        assert!(validate_chrome_trace(no_ts).unwrap_err().contains("ts"));
    }
}
