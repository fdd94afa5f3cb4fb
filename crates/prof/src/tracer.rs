//! The engine-side tracing hook: zero-cost no-op and the ring-buffer
//! collector.

use crate::analysis::SpanTrace;
use crate::span::{Span, SpanKind};
use std::collections::VecDeque;
use std::time::Instant;

/// Hook the engines invoke around every delivered event.
///
/// Mirrors `lsds_obs`'s `Recorder` zero-cost pattern: engines are generic
/// over `T: Tracer` with [`NoopTracer`] as the default, so untraced builds
/// monomorphize the hooks away entirely. `ENABLED` lets engines skip even
/// the computation of a [`SpanKind`] when the tracer is the no-op.
///
/// A tracer only *observes*. It must never influence scheduling, event
/// ordering, or model state — traced runs are required (and property
/// tested) to be bit-identical to untraced runs.
pub trait Tracer {
    /// `false` for the no-op tracer; engines guard kind computation on it.
    const ENABLED: bool;

    /// Carried from [`Tracer::begin`] to [`Tracer::record`] across the
    /// handler call (the wall-clock start, when the span is sampled in).
    type Token: Copy;

    /// Called immediately before the handler for event `id` runs.
    fn begin(&mut self, id: u64) -> Self::Token;

    /// Called immediately after the handler returns. `vt` is the virtual
    /// time the event was delivered at; `track` the entity/LP it ran on.
    fn record(
        &mut self,
        id: u64,
        parent: u64,
        kind: SpanKind,
        track: u32,
        vt: f64,
        token: Self::Token,
    );

    /// Records a span whose wall time was measured externally, in one call.
    ///
    /// Optimistic engines execute events speculatively and may roll them
    /// back; they buffer `(kind, wall_ns)` per executed event and commit
    /// the span only once the event is irrevocable (behind GVT), so the
    /// `begin`/`record` bracket cannot be used. Each committed event is
    /// reported exactly once, keeping traced optimistic runs causally
    /// consistent with the final (post-rollback) execution.
    fn commit_span(
        &mut self,
        _id: u64,
        _parent: u64,
        _kind: SpanKind,
        _track: u32,
        _vt: f64,
        _wall_ns: u64,
    ) {
    }
}

/// The zero-cost default tracer: does nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    const ENABLED: bool = false;
    type Token = ();

    #[inline(always)]
    fn begin(&mut self, _id: u64) -> Self::Token {}

    #[inline(always)]
    fn record(
        &mut self,
        _id: u64,
        _parent: u64,
        _kind: SpanKind,
        _track: u32,
        _vt: f64,
        _token: Self::Token,
    ) {
    }
}

/// Configuration for a [`RingTracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum retained spans; the oldest are evicted past this.
    pub capacity: usize,
    /// Keep one span in `sample` (by event id); `1` keeps everything.
    pub sample: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 16,
            sample: 1,
        }
    }
}

impl TraceConfig {
    /// Config keeping every span, bounded at `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig {
            capacity,
            ..TraceConfig::default()
        }
    }

    /// Sets 1-in-`sample` sampling (`0` is treated as `1`: keep all).
    pub fn sampled(mut self, sample: u64) -> Self {
        self.sample = sample.max(1);
        self
    }
}

/// A bounded ring-buffer span collector with optional 1-in-N sampling.
///
/// Sampling is decided in [`Tracer::begin`] by event id, so skipped events
/// pay neither the wall-clock read nor the buffer write. When the ring is
/// full the *oldest* span is evicted (`dropped` counts evictions), keeping
/// the most recent window of the run.
#[derive(Debug, Clone)]
pub struct RingTracer {
    cfg: TraceConfig,
    spans: VecDeque<Span>,
    dropped: u64,
}

impl RingTracer {
    /// A tracer with the given config.
    pub fn new(cfg: TraceConfig) -> Self {
        RingTracer {
            cfg,
            spans: VecDeque::with_capacity(cfg.capacity.min(1 << 16)),
            dropped: 0,
        }
    }

    /// Spans evicted (ring overflow) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The config this tracer was built with.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Ring insert shared by [`Tracer::record`] and [`Tracer::commit_span`]:
    /// capacity 0 collects nothing, a full ring evicts the oldest span.
    #[inline]
    fn push_span(&mut self, span: Span) {
        if self.cfg.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.spans.len() >= self.cfg.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }

    /// Consumes the tracer, yielding the collected trace sorted by
    /// `(virtual time, event id)`.
    pub fn finish(self) -> SpanTrace {
        let mut trace = SpanTrace {
            spans: self.spans.into(),
            dropped: self.dropped,
        };
        trace.sort();
        trace
    }
}

impl Default for RingTracer {
    fn default() -> Self {
        RingTracer::new(TraceConfig::default())
    }
}

impl Tracer for RingTracer {
    const ENABLED: bool = true;

    /// `Some(start)` when the span is sampled in, `None` when skipped.
    type Token = Option<Instant>;

    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "profiler measures host handler cost; never feeds back into simulated time"
    )]
    fn begin(&mut self, id: u64) -> Self::Token {
        if self.cfg.sample > 1 && !id.is_multiple_of(self.cfg.sample) {
            return None;
        }
        Some(Instant::now())
    }

    #[inline]
    fn record(
        &mut self,
        id: u64,
        parent: u64,
        kind: SpanKind,
        track: u32,
        vt: f64,
        token: Self::Token,
    ) {
        let Some(start) = token else {
            return;
        };
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.push_span(Span {
            id,
            parent,
            track,
            vt,
            wall_ns,
            kind,
        });
    }

    #[inline]
    fn commit_span(
        &mut self,
        id: u64,
        parent: u64,
        kind: SpanKind,
        track: u32,
        vt: f64,
        wall_ns: u64,
    ) {
        // same 1-in-N policy `begin` applies, so sampled commit-time traces
        // match sampled record-time traces event-for-event
        if self.cfg.sample > 1 && !id.is_multiple_of(self.cfg.sample) {
            return;
        }
        self.push_span(Span {
            id,
            parent,
            track,
            vt,
            wall_ns,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::NO_PARENT;

    fn record_n(tracer: &mut RingTracer, n: u64) {
        for i in 0..n {
            let tok = tracer.begin(i);
            tracer.record(i, NO_PARENT, SpanKind::new("k"), 0, i as f64, tok);
        }
    }

    #[test]
    fn noop_tracer_is_a_unit() {
        assert_eq!(std::mem::size_of::<NoopTracer>(), 0);
        const _: () = assert!(!NoopTracer::ENABLED);
        let mut t = NoopTracer;
        t.begin(1);
        t.record(1, NO_PARENT, SpanKind::DEFAULT, 0, 0.0, ());
    }

    #[test]
    fn ring_overflow_evicts_oldest() {
        let mut tracer = RingTracer::new(TraceConfig::with_capacity(4));
        record_n(&mut tracer, 10);
        assert_eq!(tracer.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        let trace = tracer.finish();
        let ids: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9], "most recent window survives");
        assert_eq!(trace.dropped, 6);
    }

    #[test]
    fn sampling_keeps_one_in_n_without_counting_drops() {
        let mut tracer = RingTracer::new(TraceConfig::default().sampled(4));
        record_n(&mut tracer, 16);
        let trace = tracer.finish();
        let ids: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 4, 8, 12]);
        // sampled-out events are not "dropped": they were never collected
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn zero_capacity_collects_nothing() {
        let mut tracer = RingTracer::new(TraceConfig::with_capacity(0));
        record_n(&mut tracer, 3);
        assert!(tracer.is_empty());
        assert_eq!(tracer.dropped(), 3);
    }

    #[test]
    fn finish_sorts_by_vt_then_id() {
        let mut tracer = RingTracer::default();
        let tok = tracer.begin(5);
        tracer.record(5, NO_PARENT, SpanKind::new("b"), 0, 2.0, tok);
        let tok = tracer.begin(3);
        tracer.record(3, NO_PARENT, SpanKind::new("a"), 0, 1.0, tok);
        let tok = tracer.begin(4);
        tracer.record(4, NO_PARENT, SpanKind::new("c"), 0, 1.0, tok);
        let trace = tracer.finish();
        let keys: Vec<(f64, u64)> = trace.spans.iter().map(|s| (s.vt, s.id)).collect();
        assert_eq!(keys, vec![(1.0, 3), (1.0, 4), (2.0, 5)]);
    }
}
