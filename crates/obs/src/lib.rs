//! # cables-obs — deterministic cross-layer observability
//!
//! A typed event bus plus metric registries threaded through every layer
//! of the CableS reproduction (`san`, `vmmc`, `svm`, `cables`, and the
//! `sim` engine's scheduling points). Three rules keep it faithful to the
//! simulation:
//!
//! 1. **Deterministic.** Every timestamp is a [`SimTime`]; recording
//!    happens from simulated threads, which the engine serializes, so the
//!    buffer order — and every exported byte — is a pure function of the
//!    program. No wall clocks, no sampling.
//! 2. **Zero simulated cost.** Recording never charges virtual time.
//!    With the sink disabled the only work on any path is one relaxed
//!    atomic load; simulated results are bit-identical either way
//!    (enforced by `tests/obs_equiv.rs`).
//! 3. **Bounded.** The event buffer is capped; on overflow the new record
//!    is dropped and counted in [`MetricsSnapshot::dropped_events`]
//!    (metrics still aggregate dropped events — only the event *record*
//!    is lost).
//!
//! Exporters: [`chrome::export`] writes a `chrome://tracing`/Perfetto
//! JSON file (nodes → processes, threads → tracks);
//! [`report::full_report`] renders paper-style tables from a snapshot;
//! [`MetricsSnapshot::to_json`] serializes the registries.
//!
//! # Examples
//!
//! ```
//! use cables_obs::{chrome, Event, Layer, ObsSink};
//! use sim::{NodeId, SimTime};
//!
//! let sink = ObsSink::new();
//! sink.set_enabled(true);
//! if sink.on() {
//!     sink.span(
//!         Layer::San,
//!         NodeId(0),
//!         cables_obs::NIC_TRACK,
//!         SimTime::ZERO,
//!         7_800,
//!         Event::SanSend { to: 1, bytes: 4 },
//!     );
//! }
//! let snap = sink.snapshot();
//! assert_eq!(snap.nodes[0].layer_ns[Layer::San.index()], 7_800);
//! let json = chrome::export(&sink.events());
//! cables_obs::json::validate(&json).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod critpath;
pub mod diff;
mod event;
pub mod explain;
pub mod json;
mod metrics;
pub mod report;
pub mod series;
pub mod sharing;
pub mod stall;
pub mod stream;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sim::{NodeId, SimTime};

pub use event::{
    canonical_sort, EdgeKind, Event, EventRecord, Layer, SchedKind, ServiceOp, NIC_TRACK,
};
pub use metrics::{Histogram, KindAgg, MetricsSnapshot, NodeMetrics, PageMetrics, HIST_BUCKETS};

use metrics::Registry;
use series::{SeriesState, SeriesSummary};
use stream::FrameRing;

/// Default event-buffer capacity (records beyond this are dropped and
/// counted, never silently discarded).
pub const DEFAULT_CAP: usize = 1 << 20;

struct SinkInner {
    events: Vec<EventRecord>,
    registry: Registry,
    series: Option<SeriesState>,
}

/// The shared observability sink: one per cluster, reachable from every
/// layer.
///
/// Two independent toggles:
///
/// - [`ObsSink::set_enabled`] — the full observability layer (all events
///   + metrics). Off by default.
/// - [`ObsSink::set_proto_trace`] — the legacy `svm::set_tracing` channel:
///   records only the six protocol instants, no metrics. Kept so the
///   deprecated ring-buffer API stays source-compatible.
///
/// Hot paths call [`ObsSink::on`]/[`ObsSink::proto_on`] (one relaxed
/// atomic load) before building an event.
pub struct ObsSink {
    enabled: AtomicBool,
    proto_trace: AtomicBool,
    cap: usize,
    dropped: AtomicU64,
    /// Series window width in simulated ns; 0 = no series running. The
    /// hot-path streaming check is one relaxed load of this.
    sample_ns: AtomicU64,
    /// Next window boundary (pre-lock fast check for [`ObsSink::series_tick`]).
    next_boundary: AtomicU64,
    inner: Mutex<SinkInner>,
}

impl std::fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSink")
            .field("enabled", &self.on())
            .field("proto_trace", &self.proto_trace.load(Ordering::Relaxed))
            .field("events", &self.inner.lock().events.len())
            .finish()
    }
}

impl Default for ObsSink {
    fn default() -> Self {
        ObsSink::new()
    }
}

impl ObsSink {
    /// Creates a disabled sink with the default buffer capacity.
    pub fn new() -> Self {
        ObsSink::with_capacity(DEFAULT_CAP)
    }

    /// Creates a disabled sink with an explicit buffer capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ObsSink {
            enabled: AtomicBool::new(false),
            proto_trace: AtomicBool::new(false),
            cap,
            dropped: AtomicU64::new(0),
            sample_ns: AtomicU64::new(0),
            next_boundary: AtomicU64::new(u64::MAX),
            inner: Mutex::new(SinkInner {
                events: Vec::new(),
                registry: Registry::new(),
                series: None,
            }),
        }
    }

    /// Whether full observability is on (hot-path check).
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Whether protocol instants should be recorded — true when full
    /// observability *or* the legacy tracing channel is on.
    #[inline]
    pub fn proto_on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) || self.proto_trace.load(Ordering::Relaxed)
    }

    /// Enables or disables full observability. Disabling keeps already
    /// recorded data (call [`ObsSink::clear`] to discard it).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Toggles the legacy protocol-trace channel. Turning it off clears
    /// the recorded protocol instants (the historical `set_tracing(false)`
    /// contract).
    pub fn set_proto_trace(&self, on: bool) {
        self.proto_trace.store(on, Ordering::Relaxed);
        if !on {
            self.inner
                .lock()
                .events
                .retain(|r| !r.event.is_proto_instant());
        }
    }

    /// Records a span of `dur_ns` simulated nanoseconds starting at `at`.
    pub fn span(
        &self,
        layer: Layer,
        node: NodeId,
        track: u64,
        at: SimTime,
        dur_ns: u64,
        event: Event,
    ) {
        let full = self.enabled.load(Ordering::Relaxed);
        let legacy = event.is_proto_instant() && self.proto_trace.load(Ordering::Relaxed);
        if !full && !legacy {
            return;
        }
        let mut g = self.inner.lock();
        if full {
            if self.sample_ns.load(Ordering::Relaxed) != 0 {
                // Streaming: cut the window *before* aggregating, so this
                // event lands in the window containing its completion,
                // then charge it to the live stall mix.
                let end_ns = at.as_nanos().saturating_add(dur_ns);
                self.series_roll_locked(&mut g, end_ns);
                if let Some(st) = g.series.as_mut() {
                    st.classify(node.0, track, at.as_nanos(), dur_ns, &event);
                }
            }
            g.registry.aggregate(layer, node.0, dur_ns, &event);
        }
        if g.events.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        g.events.push(EventRecord {
            at,
            dur_ns,
            node,
            track,
            layer,
            event,
        });
    }

    /// Records an instantaneous event at `at`.
    pub fn instant(&self, layer: Layer, node: NodeId, track: u64, at: SimTime, event: Event) {
        self.span(layer, node, track, at, 0, event);
    }

    /// Records a causal edge: the cause at `(src_node, src_track, src)`
    /// enabled the effect at `(node, track, at)`. `obj` identifies what
    /// the dependency is about (page, lock id, thread id, bytes — keyed by
    /// `kind`). Edges charge no simulated time; they only annotate the
    /// trace for `critpath` and the Perfetto flow arrows.
    #[allow(clippy::too_many_arguments)]
    pub fn edge(
        &self,
        kind: EdgeKind,
        src_node: NodeId,
        src_track: u64,
        src: SimTime,
        node: NodeId,
        track: u64,
        at: SimTime,
        obj: u64,
    ) {
        self.instant(
            kind.layer(),
            node,
            track,
            at,
            Event::Edge {
                kind,
                src_node: src_node.0,
                src_track,
                src_ns: src.as_nanos(),
                obj,
            },
        );
    }

    /// Raises the named gauge to at least `v` (no-op when disabled).
    pub fn gauge_max(&self, name: &str, v: u64) {
        if !self.on() {
            return;
        }
        self.inner.lock().registry.gauge_max(name, v);
    }

    /// Sets the named gauge (no-op when disabled).
    pub fn gauge_set(&self, name: &str, v: u64) {
        if !self.on() {
            return;
        }
        self.inner.lock().registry.gauge_set(name, v);
    }

    /// Number of records dropped on buffer overflow so far.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A clone of the recorded events, in recording order.
    pub fn events(&self) -> Vec<EventRecord> {
        self.inner.lock().events.clone()
    }

    /// Drains the recorded events.
    pub fn take_events(&self) -> Vec<EventRecord> {
        std::mem::take(&mut self.inner.lock().events)
    }

    /// Drains only the six legacy protocol instants (in recording order),
    /// leaving everything else buffered — the backing store of the
    /// deprecated `svm` `take_trace` API.
    pub fn take_proto_events(&self) -> Vec<EventRecord> {
        let mut g = self.inner.lock();
        let mut taken = Vec::new();
        let mut kept = Vec::with_capacity(g.events.len());
        for r in g.events.drain(..) {
            if r.event.is_proto_instant() {
                taken.push(r);
            } else {
                kept.push(r);
            }
        }
        g.events = kept;
        taken
    }

    /// A deterministic snapshot of every metric registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .lock()
            .registry
            .snapshot(self.dropped.load(Ordering::Relaxed))
    }

    /// Discards all recorded events and metrics and resets the dropped
    /// counter (the toggles are left as they are). An active series is
    /// abandoned (its ring keeps whatever frames were already cut).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.events.clear();
        g.registry.clear();
        g.series = None;
        self.sample_ns.store(0, Ordering::Relaxed);
        self.next_boundary.store(u64::MAX, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Starts an online metric series with the default ring capacity
    /// (see [`series`] for the delta grammar). Frames cover everything
    /// recorded since the sink was created/cleared, so the fold of the
    /// stream reproduces [`ObsSink::snapshot`] exactly. Returns the ring
    /// the exporter drains. Replaces any series already running.
    pub fn series_start(&self, sample_ns: u64) -> Arc<FrameRing> {
        self.series_start_with(sample_ns, series::DEFAULT_RING_CAP)
    }

    /// [`ObsSink::series_start`] with an explicit ring capacity (frames;
    /// a full ring carries frames forward by merging windows, never by
    /// dropping data).
    pub fn series_start_with(&self, sample_ns: u64, ring_cap: usize) -> Arc<FrameRing> {
        assert!(sample_ns > 0, "sample_ns must be positive");
        let ring = Arc::new(FrameRing::with_capacity(ring_cap));
        let mut g = self.inner.lock();
        g.series = Some(SeriesState::new(sample_ns, ring.clone()));
        self.sample_ns.store(sample_ns, Ordering::Relaxed);
        self.next_boundary.store(sample_ns, Ordering::Relaxed);
        ring
    }

    /// Whether a series is running (one relaxed load).
    #[inline]
    pub fn series_on(&self) -> bool {
        self.sample_ns.load(Ordering::Relaxed) != 0
    }

    /// Advances the series clock to `now`: cuts the pending window(s) if
    /// `now` crossed a boundary. Cheap when no series is running or the
    /// boundary is far (two relaxed loads, no lock) — instrumented code
    /// calls this from places that *don't* record events, bounding how
    /// stale a live `cablestat tail` view can get.
    #[inline]
    pub fn series_tick(&self, now: SimTime) {
        if self.sample_ns.load(Ordering::Relaxed) == 0
            || now.as_nanos() < self.next_boundary.load(Ordering::Relaxed)
        {
            return;
        }
        let mut g = self.inner.lock();
        self.series_roll_locked(&mut g, now.as_nanos());
    }

    /// Flushes the final partial window and stops the series, returning
    /// its accounting (or `None` if no series was running). The exporter
    /// drains the ring, appends [`SeriesSummary::leftover`] if present,
    /// and writes the end line.
    pub fn series_finish(&self) -> Option<SeriesSummary> {
        let mut g = self.inner.lock();
        let st = g.series.take()?;
        self.sample_ns.store(0, Ordering::Relaxed);
        self.next_boundary.store(u64::MAX, Ordering::Relaxed);
        let cur = g.registry.snapshot(self.dropped.load(Ordering::Relaxed));
        Some(st.finish(cur))
    }

    /// Cuts windows up to (but excluding) the one containing `now_ns`.
    /// Caller holds the sink lock and has checked the fast path.
    fn series_roll_locked(&self, g: &mut SinkInner, now_ns: u64) {
        let SinkInner { registry, series, .. } = g;
        let Some(st) = series.as_mut() else { return };
        if now_ns < st.next_boundary() {
            return;
        }
        let boundary = now_ns - now_ns % st.sample_ns;
        let cur = registry.snapshot(self.dropped.load(Ordering::Relaxed));
        st.roll(cur, boundary);
        self.next_boundary.store(st.next_boundary(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sink: &ObsSink, at: u64, event: Event) {
        sink.instant(Layer::Proto, NodeId(0), 1, SimTime::from_nanos(at), event);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = ObsSink::new();
        rec(&sink, 10, Event::Fault { page: 1, write: false });
        sink.span(
            Layer::San,
            NodeId(0),
            NIC_TRACK,
            SimTime::ZERO,
            100,
            Event::SanSend { to: 1, bytes: 4 },
        );
        assert!(sink.events().is_empty());
        assert_eq!(sink.snapshot().nodes.len(), 0);
    }

    #[test]
    fn proto_trace_channel_records_only_proto_instants() {
        let sink = ObsSink::new();
        sink.set_proto_trace(true);
        rec(&sink, 10, Event::Fault { page: 1, write: true });
        sink.span(
            Layer::San,
            NodeId(0),
            NIC_TRACK,
            SimTime::ZERO,
            100,
            Event::SanSend { to: 1, bytes: 4 },
        );
        let evs = sink.events();
        assert_eq!(evs.len(), 1);
        assert!(evs[0].event.is_proto_instant());
        // The legacy channel does not feed the registries.
        assert_eq!(sink.snapshot().nodes.len(), 0);
        // Turning tracing off clears the proto instants.
        sink.set_proto_trace(false);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn take_proto_events_leaves_other_events() {
        let sink = ObsSink::new();
        sink.set_enabled(true);
        rec(&sink, 10, Event::Fault { page: 1, write: true });
        sink.span(
            Layer::San,
            NodeId(0),
            NIC_TRACK,
            SimTime::from_nanos(20),
            100,
            Event::SanSend { to: 1, bytes: 4 },
        );
        rec(&sink, 30, Event::Diff { page: 1, bytes: 64 });
        let proto = sink.take_proto_events();
        assert_eq!(proto.len(), 2);
        let rest = sink.events();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].event.kind_name(), "san.send");
    }

    #[test]
    fn overflow_drops_new_records_and_counts_them() {
        let sink = ObsSink::with_capacity(2);
        sink.set_enabled(true);
        for i in 0..5 {
            rec(&sink, i, Event::Invalidate { page: i });
        }
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.dropped_events(), 3);
        let snap = sink.snapshot();
        assert_eq!(snap.dropped_events, 3);
        // Metrics still saw all five events.
        assert_eq!(snap.nodes[0].layer_events[Layer::Proto.index()], 5);
    }

    #[test]
    fn series_frames_fold_back_to_the_snapshot() {
        let sink = ObsSink::new();
        sink.set_enabled(true);
        let ring = sink.series_start(100);
        // Three windows of activity with an empty window (200..300) in
        // between; window boundaries are cut by later completions.
        for (at, dur, page) in [(10, 20, 1), (120, 30, 2), (310, 5, 3), (350, 0, 1)] {
            sink.span(
                Layer::Proto,
                NodeId(0),
                1,
                SimTime::from_nanos(at),
                dur,
                Event::Fault { page, write: false },
            );
        }
        sink.gauge_set("g", 7);
        let summary = sink.series_finish().expect("series was running");
        assert!(summary.leftover.is_none());
        assert!(!sink.series_on());
        let frames = ring.drain();
        assert_eq!(frames.len() as u64, summary.frames);
        assert_eq!(frames.len(), 3, "empty window emits no frame");
        assert!(frames.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
        assert_eq!(series::fold(frames.iter()), sink.snapshot());
        // Streaming never perturbs what was recorded.
        assert_eq!(sink.events().len(), 4);
    }

    #[test]
    fn series_tick_cuts_windows_without_events() {
        let sink = ObsSink::new();
        sink.set_enabled(true);
        let ring = sink.series_start(100);
        sink.instant(
            Layer::Proto,
            NodeId(0),
            1,
            SimTime::from_nanos(10),
            Event::Fault { page: 1, write: true },
        );
        assert!(ring.is_empty(), "window still open");
        sink.series_tick(SimTime::from_nanos(250));
        let frames = ring.drain();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].end_ns, 200);
        sink.series_finish();
    }

    #[test]
    fn gauges_require_enabled() {
        let sink = ObsSink::new();
        sink.gauge_max("x", 9);
        assert_eq!(sink.snapshot().gauge("x"), None);
        sink.set_enabled(true);
        sink.gauge_max("x", 9);
        sink.gauge_max("x", 3);
        assert_eq!(sink.snapshot().gauge("x"), Some(9));
    }
}
