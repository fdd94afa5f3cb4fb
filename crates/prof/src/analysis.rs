//! Post-run trace containers and analyses: deterministic merge,
//! per-handler wall-time profiles, and the virtual-time critical path.

use crate::span::{Span, NO_PARENT};
use lsds_stats::Summary;
use std::collections::BTreeMap;

/// A collected run trace: spans ordered by `(virtual time, event id)`.
///
/// Named `SpanTrace` (not `Trace`) because `lsds-trace` already exports a
/// `Trace` of monitored input records; this is the *output* causality DAG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTrace {
    /// The retained spans, sorted by `(vt, id)`.
    pub spans: Vec<Span>,
    /// Spans lost to ring-buffer eviction (not sampling).
    pub dropped: u64,
}

impl SpanTrace {
    /// An empty trace.
    pub fn new() -> Self {
        SpanTrace::default()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Restores the canonical `(vt, id)` order.
    pub fn sort(&mut self) {
        self.spans
            .sort_by(|a, b| a.vt.total_cmp(&b.vt).then(a.id.cmp(&b.id)));
    }

    /// Merges per-LP traces into one, deterministically ordered by
    /// `(vt, id)`. Event ids are unique across LPs (the cross-LP tie
    /// key embeds the source LP), so the merged order is total and
    /// independent of thread interleaving.
    pub fn merge(parts: Vec<SpanTrace>) -> SpanTrace {
        let mut out = SpanTrace::new();
        for part in parts {
            out.dropped += part.dropped;
            out.spans.extend(part.spans);
        }
        out.sort();
        out
    }

    /// Per-handler-kind wall-time profile.
    pub fn profile(&self) -> HandlerProfile {
        let mut by_kind: BTreeMap<&'static str, Summary> = BTreeMap::new();
        for s in &self.spans {
            by_kind
                .entry(s.kind.name)
                .or_default()
                .add(s.wall_ns as f64);
        }
        HandlerProfile {
            kinds: by_kind
                .into_iter()
                .map(|(name, wall_ns)| KindProfile { name, wall_ns })
                .collect(),
        }
    }

    /// Extracts the longest virtual-time-weighted causal chain.
    ///
    /// Every event has exactly one causal parent, so the causality DAG is
    /// a forest and the virtual-time weight of any root-to-span chain
    /// telescopes to the final span's delivery time. The critical path is
    /// therefore the parent chain ending at the latest-delivered span
    /// (ties broken by id, matching engine delivery order).
    ///
    /// `complete` is `false` when the walk stops at a span whose recorded
    /// parent was evicted or sampled away, i.e. the head of the chain is
    /// missing from the trace.
    pub fn critical_path(&self) -> CriticalPath {
        let mut by_id: BTreeMap<u64, &Span> = BTreeMap::new();
        for s in &self.spans {
            by_id.insert(s.id, s);
        }
        // latest (vt, id): last span in canonical order, or scan if unsorted
        let last = self
            .spans
            .iter()
            .max_by(|a, b| a.vt.total_cmp(&b.vt).then(a.id.cmp(&b.id)));
        let Some(last) = last else {
            return CriticalPath {
                steps: Vec::new(),
                makespan: 0.0,
                complete: true,
            };
        };
        let mut rev: Vec<&Span> = Vec::new();
        let mut cur = last;
        let mut complete = true;
        loop {
            rev.push(cur);
            if cur.parent == NO_PARENT {
                break;
            }
            match by_id.get(&cur.parent) {
                // cycle guard: a corrupt trace must not hang the walker
                Some(p) if rev.len() <= self.spans.len() => cur = p,
                _ => {
                    complete = false;
                    break;
                }
            }
        }
        rev.reverse();
        let mut steps = Vec::with_capacity(rev.len());
        let mut prev_vt = 0.0;
        for s in rev {
            steps.push(CriticalStep {
                id: s.id,
                kind: s.kind,
                track: s.track,
                vt: s.vt,
                vt_delta: s.vt - prev_vt,
                wall_ns: s.wall_ns,
            });
            prev_vt = s.vt;
        }
        CriticalPath {
            makespan: last.vt,
            steps,
            complete,
        }
    }
}

/// Wall-time statistics for one handler kind.
#[derive(Debug, Clone)]
pub struct KindProfile {
    /// Handler kind label.
    pub name: &'static str,
    /// Wall-clock nanoseconds per invocation (count, mean, percentiles).
    pub wall_ns: Summary,
}

/// Per-handler-kind wall-time profile, sorted by kind name.
#[derive(Debug, Clone, Default)]
pub struct HandlerProfile {
    /// One entry per distinct handler kind, name-sorted.
    pub kinds: Vec<KindProfile>,
}

impl HandlerProfile {
    /// Looks up a kind's profile by name.
    pub fn kind(&self, name: &str) -> Option<&KindProfile> {
        self.kinds.iter().find(|k| k.name == name)
    }
}

/// One hop on the critical path.
#[derive(Debug, Clone, Copy)]
pub struct CriticalStep {
    /// Event id of the span.
    pub id: u64,
    /// Handler classification.
    pub kind: crate::span::SpanKind,
    /// Entity/LP track the event ran on.
    pub track: u32,
    /// Virtual time the event was delivered at.
    pub vt: f64,
    /// Virtual time attributed to this hop (delivery minus the parent's
    /// delivery; for the chain head, delivery time itself).
    pub vt_delta: f64,
    /// Wall-clock nanoseconds the handler took.
    pub wall_ns: u64,
}

/// The longest virtual-time-weighted causal chain of a trace.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// The chain, causally ordered (root first).
    pub steps: Vec<CriticalStep>,
    /// Virtual time of the final span — the makespan the chain explains.
    pub makespan: f64,
    /// `false` when the chain head's parent was evicted or sampled away.
    pub complete: bool,
}

impl CriticalPath {
    /// Virtual time on the path attributed to each handler kind, sorted by
    /// descending share: `(kind name, total vt, hop count)`.
    pub fn by_kind(&self) -> Vec<(&'static str, f64, usize)> {
        let mut agg: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in &self.steps {
            let e = agg.entry(s.kind.name).or_insert((0.0, 0));
            e.0 += s.vt_delta;
            e.1 += 1;
        }
        let mut out: Vec<(&'static str, f64, usize)> =
            agg.into_iter().map(|(k, (vt, n))| (k, vt, n)).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    fn span(id: u64, parent: u64, vt: f64, name: &'static str) -> Span {
        Span {
            id,
            parent,
            track: 0,
            vt,
            wall_ns: 10 * (id + 1),
            kind: SpanKind::new(name),
        }
    }

    #[test]
    fn critical_path_walks_parents_to_root() {
        // two chains: 0→1→3 (ends vt 5.0) and 2→4 (ends vt 9.0)
        let trace = SpanTrace {
            spans: vec![
                span(0, NO_PARENT, 1.0, "a"),
                span(1, 0, 2.0, "b"),
                span(2, NO_PARENT, 3.0, "a"),
                span(3, 1, 5.0, "c"),
                span(4, 2, 9.0, "b"),
            ],
            dropped: 0,
        };
        let cp = trace.critical_path();
        assert!(cp.complete);
        assert_eq!(cp.makespan, 9.0);
        let ids: Vec<u64> = cp.steps.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 4]);
        assert_eq!(cp.steps[0].vt_delta, 3.0);
        assert_eq!(cp.steps[1].vt_delta, 6.0);
        // deltas telescope to the makespan
        let total: f64 = cp.steps.iter().map(|s| s.vt_delta).sum();
        assert_eq!(total, cp.makespan);
        let by_kind = cp.by_kind();
        assert_eq!(by_kind[0], ("b", 6.0, 1));
        assert_eq!(by_kind[1], ("a", 3.0, 1));
    }

    #[test]
    fn critical_path_reports_incomplete_on_missing_parent() {
        let trace = SpanTrace {
            spans: vec![span(7, 3, 4.0, "x")], // parent 3 was evicted
            dropped: 1,
        };
        let cp = trace.critical_path();
        assert!(!cp.complete);
        assert_eq!(cp.steps.len(), 1);
        assert_eq!(cp.steps[0].id, 7);
    }

    #[test]
    fn critical_path_of_empty_trace_is_empty() {
        let cp = SpanTrace::new().critical_path();
        assert!(cp.steps.is_empty());
        assert!(cp.complete);
        assert_eq!(cp.makespan, 0.0);
    }

    #[test]
    fn critical_path_survives_parent_cycles() {
        // corrupt input: 1 and 2 claim each other as parents
        let trace = SpanTrace {
            spans: vec![span(1, 2, 1.0, "x"), span(2, 1, 2.0, "x")],
            dropped: 0,
        };
        let cp = trace.critical_path();
        assert!(!cp.complete);
        assert!(cp.steps.len() <= 3);
    }

    #[test]
    fn merge_is_deterministic_and_order_independent() {
        let a = SpanTrace {
            spans: vec![span(10, NO_PARENT, 2.0, "a"), span(12, 10, 4.0, "a")],
            dropped: 1,
        };
        let b = SpanTrace {
            spans: vec![span(11, NO_PARENT, 2.0, "b"), span(13, 11, 3.0, "b")],
            dropped: 2,
        };
        let m1 = SpanTrace::merge(vec![a.clone(), b.clone()]);
        let m2 = SpanTrace::merge(vec![b, a]);
        assert_eq!(m1, m2);
        assert_eq!(m1.dropped, 3);
        let ids: Vec<u64> = m1.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![10, 11, 13, 12]);
    }

    #[test]
    fn profile_groups_by_kind_name() {
        let trace = SpanTrace {
            spans: vec![
                span(0, NO_PARENT, 1.0, "a"),
                span(1, 0, 2.0, "b"),
                span(2, 1, 3.0, "a"),
            ],
            dropped: 0,
        };
        let prof = trace.profile();
        assert_eq!(prof.kinds.len(), 2);
        let a = prof.kind("a").expect("kind a profiled");
        assert_eq!(a.wall_ns.count(), 2);
        assert_eq!(a.wall_ns.min(), 10.0);
        assert_eq!(a.wall_ns.max(), 30.0);
        assert!(prof.kind("b").is_some());
        assert!(prof.kind("zzz").is_none());
    }
}
