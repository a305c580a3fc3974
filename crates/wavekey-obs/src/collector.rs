//! Pluggable sinks for spans, events, and session traces.
//!
//! A [`Collector`] receives every record an enabled [`crate::Obs`] handle
//! produces. Two sinks ship with the crate: [`NullCollector`] (reports
//! itself inert, so the handle collapses to the zero-overhead disabled
//! path) and [`MemoryCollector`] (in-process buffers for tests and report
//! bins). [`MultiCollector`] fans records out to several sinks at once.
//!
//! Collectors live on the thread that drives their sessions: they keep
//! their buffers in `RefCell`s, take no lock, and are not `Sync`.

use crate::event::CausalEvent;
use crate::span::{EventRecord, SpanRecord};
use crate::trace::SessionTrace;
use std::cell::RefCell;
use std::sync::Arc;

/// A sink for observability records, called on the thread that owns the
/// [`crate::Obs`] handle it is attached to.
pub trait Collector {
    /// Whether attaching this collector should enable instrumentation at
    /// all. Defaults to `true`; [`NullCollector`] overrides to `false`.
    fn is_enabled(&self) -> bool {
        true
    }
    /// A span finished.
    fn record_span(&self, _span: &SpanRecord) {}
    /// A point event fired.
    fn record_event(&self, _event: &EventRecord) {}
    /// A session completed (successfully or not).
    fn record_session(&self, _trace: &SessionTrace) {}
    /// A causal event was emitted (see [`crate::event`]). Defaults to a
    /// no-op so pre-existing collectors keep compiling unchanged.
    fn record_causal(&self, _event: &CausalEvent) {}
    /// Whether this collector keeps causal events. Defaults to `true`; a
    /// collector that drops them returns `false`, and then
    /// [`crate::EventScope::new`] hands out the disabled scope, so
    /// instrumented code builds no events nobody records.
    fn records_causal(&self) -> bool {
        true
    }
}

/// The zero-overhead default: discards everything, and tells the handle to
/// disable instrumentation entirely (no clock reads, no allocation).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCollector;

impl Collector for NullCollector {
    fn is_enabled(&self) -> bool {
        false
    }
}

/// In-memory sink: keeps every record, in arrival order.
#[derive(Debug, Default)]
pub struct MemoryCollector {
    spans: RefCell<Vec<(String, f64)>>,
    events: RefCell<Vec<(String, f64)>>,
    sessions: RefCell<Vec<SessionTrace>>,
    causal: RefCell<Vec<CausalEvent>>,
}

impl MemoryCollector {
    /// An empty collector.
    pub fn new() -> MemoryCollector {
        MemoryCollector::default()
    }

    /// All recorded spans as `(name, seconds)`.
    pub fn spans(&self) -> Vec<(String, f64)> {
        self.spans.borrow().clone()
    }

    /// All recorded events as `(name, value)`.
    pub fn events(&self) -> Vec<(String, f64)> {
        self.events.borrow().clone()
    }

    /// All recorded session traces.
    pub fn sessions(&self) -> Vec<SessionTrace> {
        self.sessions.borrow().clone()
    }

    /// All recorded causal events (unbounded; tests and report bins only —
    /// long-running processes should sink into [`crate::EventLog`]).
    pub fn causal_events(&self) -> Vec<CausalEvent> {
        self.causal.borrow().clone()
    }
}

impl Collector for MemoryCollector {
    fn record_span(&self, span: &SpanRecord) {
        self.spans.borrow_mut().push((span.name.to_string(), span.seconds));
    }
    fn record_event(&self, event: &EventRecord) {
        self.events.borrow_mut().push((event.name.to_string(), event.value));
    }
    fn record_session(&self, trace: &SessionTrace) {
        self.sessions.borrow_mut().push(trace.clone());
    }
    fn record_causal(&self, event: &CausalEvent) {
        self.causal.borrow_mut().push(event.clone());
    }
}

/// Fans every record out to several collectors (e.g. a memory collector
/// plus an [`crate::EventLog`]).
#[derive(Default)]
pub struct MultiCollector {
    sinks: Vec<Arc<dyn Collector>>,
}

impl std::fmt::Debug for MultiCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiCollector").field("sinks", &self.sinks.len()).finish()
    }
}

impl MultiCollector {
    /// Fan out to `sinks` (inert sinks are dropped).
    pub fn new(sinks: Vec<Arc<dyn Collector>>) -> MultiCollector {
        MultiCollector { sinks: sinks.into_iter().filter(|s| s.is_enabled()).collect() }
    }
}

impl Collector for MultiCollector {
    fn is_enabled(&self) -> bool {
        !self.sinks.is_empty()
    }
    fn records_causal(&self) -> bool {
        self.sinks.iter().any(|s| s.records_causal())
    }
    fn record_span(&self, span: &SpanRecord) {
        for s in &self.sinks {
            s.record_span(span);
        }
    }
    fn record_event(&self, event: &EventRecord) {
        for s in &self.sinks {
            s.record_event(event);
        }
    }
    fn record_session(&self, trace: &SessionTrace) {
        for s in &self.sinks {
            s.record_session(trace);
        }
    }
    fn record_causal(&self, event: &CausalEvent) {
        for s in &self.sinks {
            s.record_causal(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_collector_fans_out_and_drops_inert_sinks() {
        let a = Arc::new(MemoryCollector::new());
        let b = Arc::new(MemoryCollector::new());
        let multi = MultiCollector::new(vec![
            a.clone(),
            Arc::new(NullCollector),
            b.clone(),
        ]);
        assert!(multi.is_enabled());
        multi.record_span(&SpanRecord { name: "x", seconds: 1.0 });
        assert_eq!(a.spans().len(), 1);
        assert_eq!(b.spans().len(), 1);

        let empty = MultiCollector::new(vec![Arc::new(NullCollector)]);
        assert!(!empty.is_enabled());
    }
}
