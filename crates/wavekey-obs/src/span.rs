//! The [`Obs`] handle: the single object instrumented code touches.
//!
//! `Obs` is a cheaply clonable handle that is either *disabled* (the
//! default — a `None` inside, so every instrumentation call is a branch on
//! a niche-optimized pointer and nothing else: no clock read, no
//! allocation) or *enabled*, in which case spans, events, and session
//! traces flow to the attached [`Collector`] and into the handle's own
//! metrics [`Registry`] (each [`Obs::new`] builds a fresh one, shared by
//! the handle's clones).
//!
//! An enabled handle lives on the thread that drives its sessions: its
//! state sits behind an `Rc`, so `Obs` is not `Send` and takes no lock.
//!
//! Span timings use [`std::time::Instant`], the monotonic clock.

use crate::collector::Collector;
use crate::event::CausalEvent;
use crate::metrics::Registry;
use crate::profile::{PathStat, ProfileStore};
use crate::trace::SessionTrace;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// A completed span: a named duration.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (static so the disabled path never allocates).
    pub name: &'static str,
    /// Wall-clock duration in seconds.
    pub seconds: f64,
}

/// A point event carrying one value (count, size, ratio, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name.
    pub name: &'static str,
    /// Associated value.
    pub value: f64,
}

struct Inner {
    collector: Arc<dyn Collector>,
    registry: Registry,
    profile: ProfileStore,
    /// The spans currently open on this handle, outermost first. Touched
    /// only on the *enabled* path — a disabled handle never reaches it, so
    /// the disabled span cost stays one pointer test.
    stack: RefCell<Vec<&'static str>>,
}

impl Inner {
    /// Record a span's time both flat (collector + `span.{name}`
    /// histogram, as always) and hierarchically under `path` (the
    /// `;`-joined ancestry) in the profile store.
    fn record_span_at(&self, name: &'static str, path: &str, seconds: f64) {
        self.collector.record_span(&SpanRecord { name, seconds });
        self.registry.observe(&format!("span.{name}"), seconds);
        self.profile.record(path, seconds);
    }

    /// The open-span path with `name` appended (`;`-joined).
    fn path_with(&self, name: &str) -> String {
        let stack = self.stack.borrow();
        if stack.is_empty() {
            name.to_string()
        } else {
            let mut path = stack.join(";");
            path.push(';');
            path.push_str(name);
            path
        }
    }
}

/// Observability handle passed into instrumented code.
///
/// Not `Send`: clones share one `Rc`, so a handle stays on the thread
/// that drives its sessions.
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<wavekey_obs::Obs>();
/// ```
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Rc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.is_enabled()).finish()
    }
}

impl Obs {
    /// The zero-overhead disabled handle (also what `Default` gives).
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// An enabled handle feeding `collector` and a fresh registry.
    ///
    /// If the collector reports itself inert ([`Collector::is_enabled`] is
    /// `false`, as [`crate::NullCollector`]'s does), this returns the
    /// disabled handle, so "attach a `NullCollector`" is exactly as cheap
    /// as not attaching anything.
    pub fn new(collector: Arc<dyn Collector>) -> Obs {
        if !collector.is_enabled() {
            return Obs::disabled();
        }
        Obs {
            inner: Some(Rc::new(Inner {
                collector,
                registry: Registry::new(),
                profile: ProfileStore::new(),
                stack: RefCell::new(Vec::new()),
            })),
        }
    }

    /// Convenience: an enabled handle with a [`crate::MemoryCollector`],
    /// returning both.
    pub fn with_memory() -> (Obs, Arc<crate::MemoryCollector>) {
        let collector = Arc::new(crate::MemoryCollector::new());
        (Obs::new(collector.clone()), collector)
    }

    /// Whether instrumentation is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether causal events reach a collector that keeps them: the
    /// handle is enabled and its collector
    /// [records causal events](Collector::records_causal).
    pub fn records_causal(&self) -> bool {
        self.inner.as_deref().is_some_and(|inner| inner.collector.records_causal())
    }

    /// Open an RAII span; the duration is recorded when the guard drops.
    /// On a disabled handle this does not even read the clock. When
    /// enabled, the span also joins the handle's open-span stack, so its
    /// closing time is attributed hierarchically in the profile
    /// (see [`crate::profile`]).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            live: self.inner.as_deref().map(|inner| {
                let depth = {
                    let mut stack = inner.stack.borrow_mut();
                    stack.push(name);
                    stack.len() - 1
                };
                (inner, name, Instant::now(), depth)
            }),
        }
    }

    /// Record an already-measured duration as a span (used where code
    /// already times a stage for protocol-logic reasons, e.g. the
    /// agreement's logical clocks — avoids double clock reads). Attributes
    /// as a leaf under the spans currently open on this handle.
    pub fn record_duration(&self, name: &'static str, seconds: f64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.record_span_at(name, &inner.path_with(name), seconds);
        }
    }

    /// Record a point event with a value; also feeds a histogram of the
    /// same name.
    pub fn event(&self, name: &'static str, value: f64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.collector.record_event(&EventRecord { name, value });
            inner.registry.observe(name, value);
        }
    }

    /// Increment a counter by 1.
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment a counter by `delta`.
    pub fn add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.registry.inc_counter(name, delta);
        }
    }

    /// Set a gauge.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.registry.set_gauge(name, value);
        }
    }

    /// Record a histogram sample without an associated collector event.
    pub fn observe(&self, name: &'static str, value: f64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.registry.observe(name, value);
        }
    }

    /// Record a finished session trace: forwards to the collector and
    /// derives the standard metrics (`sessions_total`/`sessions_success`
    /// counters, `stage.*` timing histograms, `seed_mismatch_ratio`).
    pub fn session(&self, trace: &SessionTrace) {
        if let Some(inner) = self.inner.as_deref() {
            inner.collector.record_session(trace);
            inner.registry.inc_counter("sessions_total", 1);
            if trace.is_success() {
                inner.registry.inc_counter("sessions_success", 1);
            }
            for s in &trace.stages {
                inner.registry.observe(&format!("stage.{}", s.name), s.seconds);
            }
            if let Some(ratio) = trace.seed_mismatch_ratio() {
                inner.registry.observe("seed_mismatch_ratio", ratio);
            }
            if let Some(consumed) = trace.deadline_consumed_s {
                inner.registry.observe("deadline_consumed_seconds", consumed);
            }
        }
    }

    /// Forward a causal event to the collector (see [`crate::event`]).
    /// Instrumented code normally goes through an
    /// [`crate::event::EventScope`], which stamps the causal identity and
    /// calls this.
    pub fn causal(&self, event: &CausalEvent) {
        if let Some(inner) = self.inner.as_deref() {
            inner.collector.record_causal(event);
        }
    }

    /// Snapshot of the hierarchical span profile: `(path, stat)` sorted by
    /// path (empty when disabled or nothing has been recorded).
    pub fn profile_snapshot(&self) -> Vec<(String, PathStat)> {
        self.inner.as_deref().map(|inner| inner.profile.snapshot()).unwrap_or_default()
    }

    /// The profile as flamegraph collapsed-stack text (empty when
    /// disabled).
    pub fn profile_collapsed(&self) -> String {
        crate::profile::collapsed(&self.profile_snapshot())
    }

    /// Run `f` against the registry, if enabled (snapshotting, exporting).
    pub fn with_registry<T>(&self, f: impl FnOnce(&Registry) -> T) -> Option<T> {
        self.inner.as_deref().map(|inner| f(&inner.registry))
    }

    /// Prometheus text exposition of the registry (empty when disabled).
    pub fn prometheus_text(&self) -> String {
        self.with_registry(Registry::prometheus_text).unwrap_or_default()
    }
}

/// RAII guard returned by [`Obs::span`]; records the span on drop.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard<'a> {
    live: Option<(&'a Inner, &'static str, Instant, usize)>,
}

impl SpanGuard<'_> {
    /// End the span now, returning the measured seconds (0.0 if disabled).
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        if let Some((inner, name, start, depth)) = self.live.take() {
            let seconds = start.elapsed().as_secs_f64();
            // Pop this span off the handle's stack and take the ancestry
            // as the profile path. RAII guards nest LIFO; if guards closed
            // out of order (sessions interleaved on one executor, say)
            // fall back to attributing at the root.
            let path = {
                let mut stack = inner.stack.borrow_mut();
                if stack.get(depth).copied() == Some(name) {
                    let path = stack[..=depth].join(";");
                    stack.truncate(depth);
                    path
                } else {
                    name.to_string()
                }
            };
            inner.record_span_at(name, &path, seconds);
            seconds
        } else {
            0.0
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::NullCollector;

    #[test]
    fn disabled_handle_is_inert_everywhere() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        {
            let _g = obs.span("x");
        }
        obs.record_duration("x", 1.0);
        obs.event("e", 2.0);
        obs.inc("c");
        obs.gauge("g", 3.0);
        obs.session(&SessionTrace::new(1));
        assert_eq!(obs.prometheus_text(), "");
        assert!(obs.with_registry(|_| ()).is_none());
    }

    #[test]
    fn null_collector_collapses_to_disabled() {
        let obs = Obs::new(Arc::new(NullCollector));
        assert!(!obs.is_enabled());
    }

    #[test]
    fn spans_and_metrics_flow_when_enabled() {
        let (obs, mem) = Obs::with_memory();
        assert!(obs.is_enabled());
        {
            let _g = obs.span("ot_round_a");
        }
        let secs = obs.span("explicit").finish();
        assert!(secs >= 0.0);
        obs.record_duration("premeasured", 0.25);
        obs.event("seed_mismatch_bits", 3.0);
        obs.inc("enroll_total");

        let spans = mem.spans();
        let names: Vec<_> = spans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["ot_round_a", "explicit", "premeasured"]);
        assert_eq!(spans[2].1, 0.25);
        assert_eq!(mem.events(), vec![("seed_mismatch_bits".to_string(), 3.0)]);

        let text = obs.prometheus_text();
        assert!(text.contains("span_premeasured_count 1"));
        assert!(text.contains("enroll_total 1"));
    }

    #[test]
    fn session_updates_derived_metrics() {
        let (obs, mem) = Obs::with_memory();
        let mut t = SessionTrace::new(5);
        t.outcome = "success".into();
        t.seed_len = 48;
        t.seed_mismatch_bits = Some(6);
        t.record_stage(crate::trace::stage::OT_ROUND_A, 0.04);
        obs.session(&t);
        assert_eq!(mem.sessions().len(), 1);
        let text = obs.prometheus_text();
        assert!(text.contains("sessions_total 1"));
        assert!(text.contains("sessions_success 1"));
        assert!(text.contains("stage_ot_round_a_count 1"));
        assert!(text.contains("seed_mismatch_ratio_count 1"));
    }

    #[test]
    fn nested_spans_build_hierarchical_profile_paths() {
        let (obs, _mem) = Obs::with_memory();
        {
            let _outer = obs.span("outer");
            {
                let _inner = obs.span("inner");
                obs.record_duration("leaf", 0.25);
            }
            obs.record_duration("sibling", 0.5);
        }
        obs.record_duration("root_leaf", 0.125);
        let snap = obs.profile_snapshot();
        let paths: Vec<&str> = snap.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec!["outer", "outer;inner", "outer;inner;leaf", "outer;sibling", "root_leaf"]
        );
        let leaf = snap.iter().find(|(p, _)| p == "outer;inner;leaf").expect("leaf");
        assert_eq!(leaf.1.count, 1);
        assert_eq!(leaf.1.total_s, 0.25);
        // The export exists and contains the paths.
        assert!(obs.profile_collapsed().contains("outer;inner;leaf "));
        // Flat span recording is unchanged: names stay bare.
        let text = obs.prometheus_text();
        assert!(text.contains("span_leaf_count 1"));
    }

    #[test]
    fn profile_paths_are_per_handle() {
        let (obs, _mem) = Obs::with_memory();
        let (other, _other_mem) = Obs::with_memory();
        {
            let _outer = obs.span("outer");
            // A clone shares the handle's open-span stack ...
            let clone = obs.clone();
            let _child = clone.span("child");
            // ... another handle on the same thread does not.
            let _root = other.span("other_root");
        }
        let paths = |o: &Obs| o.profile_snapshot().into_iter().map(|(p, _)| p).collect::<Vec<_>>();
        assert_eq!(paths(&obs), vec!["outer", "outer;child"]);
        assert_eq!(paths(&other), vec!["other_root"]);
    }

    #[test]
    fn disabled_handle_has_empty_profile_and_inert_causal() {
        let obs = Obs::disabled();
        {
            let _g = obs.span("x");
        }
        obs.record_duration("y", 1.0);
        assert!(obs.profile_snapshot().is_empty());
        assert_eq!(obs.profile_collapsed(), "");
        obs.causal(&CausalEvent {
            session_id: 1,
            seq: 0,
            actor: "manager",
            kind: "deliver",
            state: None,
            frame: None,
            n: None,
        });
    }

    #[test]
    fn causal_events_reach_the_collector() {
        let (obs, mem) = Obs::with_memory();
        let scope = crate::event::EventScope::new(&obs, 42, "mobile");
        scope.emit_state("ot_round_a");
        scope.emit_state("done");
        let events = mem.causal_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].session_id, 42);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].state.as_deref(), Some("done"));
    }
}
