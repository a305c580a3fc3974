//! Causal structured event log: bounded, per-session.
//!
//! Metrics say *how much*; the event log says *what happened, in order*.
//! Every record is a [`CausalEvent`] carrying a causal identity — session
//! id, a per-session monotone sequence number, the emitting actor, and
//! optional protocol context (machine state, frame kind, occurrence
//! counter). Deliberately absent: wall-clock timestamps. The protocol's
//! logical clocks include `Instant`-measured compute, so any real-time
//! field would break the determinism guarantee this log exists to
//! provide — with a fixed seed, the exported JSONL timelines are
//! byte-identical run to run, which is what lets a tail or divergent
//! session be replayed as a causal narrative.
//!
//! Producers emit through an [`EventScope`]: a cheap per-session handle
//! (disabled = a `None`, no allocation) that stamps the session id and a
//! sequence counter shared by the session's actors, so the mobile machine,
//! server machine, and the session manager wrapper of one session
//! interleave into a single totally-ordered timeline. Storage is the
//! [`EventLog`] collector: one map keyed by session id, each session's
//! timeline bounded by a per-session cap (overflow increments a drop
//! counter instead of growing without bound).

use crate::collector::Collector;
use crate::json::Json;
use crate::span::Obs;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Default bound on events retained per session.
pub const DEFAULT_PER_SESSION_CAP: usize = 256;

/// One structured event with causal identity.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalEvent {
    /// The session this event belongs to.
    pub session_id: u64,
    /// Per-session monotone sequence number (shared across the session's
    /// actors, so one total order per session).
    pub seq: u64,
    /// Which component emitted the event (`"mobile"`, `"server"`,
    /// `"manager"`, `"driver"`).
    pub actor: &'static str,
    /// Event kind (`"state"`, `"deliver"`, `"nak"`, `"retransmit"`, ...).
    pub kind: &'static str,
    /// Machine state after a transition, when the event is one.
    pub state: Option<String>,
    /// Protocol frame kind involved, when the event concerns a frame.
    pub frame: Option<String>,
    /// Occurrence counter / small payload (retransmit attempt, NAK budget
    /// used, ...), when meaningful.
    pub n: Option<u64>,
}

impl CausalEvent {
    /// Compact JSON representation (one JSONL timeline line).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("type", Json::Str("causal".into())),
            ("session", Json::Num(self.session_id as f64)),
            ("seq", Json::Num(self.seq as f64)),
            ("actor", Json::Str(self.actor.into())),
            ("kind", Json::Str(self.kind.into())),
        ];
        if let Some(state) = &self.state {
            pairs.push(("state", Json::Str(state.clone())));
        }
        if let Some(frame) = &self.frame {
            pairs.push(("frame", Json::Str(frame.clone())));
        }
        if let Some(n) = self.n {
            pairs.push(("n", Json::Num(n as f64)));
        }
        Json::obj(pairs)
    }
}

struct ScopeInner {
    obs: Obs,
    session_id: u64,
    actor: &'static str,
    seq: Rc<Cell<u64>>,
}

/// Per-session emitting handle: stamps session id, actor, and a shared
/// sequence counter onto every event and forwards it to the scope's
/// [`Obs`] handle (thence to any [`Collector::record_causal`] sink).
///
/// Cloning (or [`EventScope::with_actor`]) shares the sequence counter, so
/// all of one session's actors write into one total order. The disabled
/// scope (from [`EventScope::disabled`], or `new` over a disabled `Obs`)
/// holds nothing and allocates nothing — instrumented protocol code pays
/// one pointer test.
///
/// Like [`Obs`], a scope is not `Send`: it holds `Rc`s and a `Cell`
/// counter, and stays on the thread that drives its session.
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<wavekey_obs::EventScope>();
/// ```
#[derive(Clone)]
pub struct EventScope {
    inner: Option<Rc<ScopeInner>>,
}

impl std::fmt::Debug for EventScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventScope").field("enabled", &self.is_enabled()).finish()
    }
}

impl Default for EventScope {
    fn default() -> Self {
        EventScope::disabled()
    }
}

impl EventScope {
    /// The inert scope: every emit is a no-op.
    pub fn disabled() -> EventScope {
        EventScope { inner: None }
    }

    /// A scope for `session_id` emitting as `actor`; collapses to the
    /// disabled scope when `obs` is disabled or its collector drops
    /// causal events ([`crate::Collector::records_causal`]).
    pub fn new(obs: &Obs, session_id: u64, actor: &'static str) -> EventScope {
        if !obs.records_causal() {
            return EventScope::disabled();
        }
        EventScope {
            inner: Some(Rc::new(ScopeInner {
                obs: obs.clone(),
                session_id,
                actor,
                seq: Rc::new(Cell::new(0)),
            })),
        }
    }

    /// A sibling scope for another actor of the same session, sharing the
    /// sequence counter.
    pub fn with_actor(&self, actor: &'static str) -> EventScope {
        match &self.inner {
            Some(inner) => EventScope {
                inner: Some(Rc::new(ScopeInner {
                    obs: inner.obs.clone(),
                    session_id: inner.session_id,
                    actor,
                    seq: Rc::clone(&inner.seq),
                })),
            },
            None => EventScope::disabled(),
        }
    }

    /// Whether emits reach a collector.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The session this scope stamps (0 when disabled).
    pub fn session_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.session_id)
    }

    /// Emit a bare event.
    pub fn emit(&self, kind: &'static str) {
        self.emit_full(kind, None, None, None);
    }

    /// Emit a state-transition event.
    pub fn emit_state(&self, state: &str) {
        self.emit_full("state", Some(state), None, None);
    }

    /// Emit a frame-related event.
    pub fn emit_frame(&self, kind: &'static str, frame: &str) {
        self.emit_full(kind, None, Some(frame), None);
    }

    /// Emit an event carrying an occurrence counter.
    pub fn emit_n(&self, kind: &'static str, n: u64) {
        self.emit_full(kind, None, None, Some(n));
    }

    /// Emit with every field under caller control.
    pub fn emit_full(
        &self,
        kind: &'static str,
        state: Option<&str>,
        frame: Option<&str>,
        n: Option<u64>,
    ) {
        let Some(inner) = &self.inner else { return };
        let seq = inner.seq.get();
        inner.seq.set(seq + 1);
        let event = CausalEvent {
            session_id: inner.session_id,
            seq,
            actor: inner.actor,
            kind,
            state: state.map(str::to_string),
            frame: frame.map(str::to_string),
            n,
        };
        inner.obs.causal(&event);
    }
}

/// Bounded per-session event store; a [`Collector`] that only listens to
/// [`Collector::record_causal`].
///
/// Each session's timeline is capped at `per_session_cap` events —
/// overflow is counted, not stored, so a pathological session cannot grow
/// the log without bound. The JSONL export (sessions by id, events by seq)
/// is deterministic whenever the traffic is.
pub struct EventLog {
    sessions: RefCell<HashMap<u64, Vec<CausalEvent>>>,
    per_session_cap: usize,
    dropped: Cell<u64>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("sessions", &self.sessions.borrow().len())
            .field("cap", &self.per_session_cap)
            .finish()
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(DEFAULT_PER_SESSION_CAP)
    }
}

impl EventLog {
    /// An empty log retaining at most `per_session_cap` events per session.
    pub fn new(per_session_cap: usize) -> EventLog {
        EventLog {
            sessions: RefCell::new(HashMap::new()),
            per_session_cap: per_session_cap.max(1),
            dropped: Cell::new(0),
        }
    }

    /// Store one event (dropped and counted past the per-session cap).
    pub fn record(&self, event: CausalEvent) {
        let mut sessions = self.sessions.borrow_mut();
        let timeline = sessions.entry(event.session_id).or_default();
        if timeline.len() < self.per_session_cap {
            timeline.push(event);
        } else {
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    /// Total stored events across all sessions.
    pub fn len(&self) -> usize {
        self.sessions.borrow().values().map(Vec::len).sum()
    }

    /// Whether no events are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped by the per-session cap.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// All session ids with at least one event, ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.sessions.borrow().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// One session's timeline, ordered by sequence number.
    pub fn timeline(&self, session_id: u64) -> Vec<CausalEvent> {
        let mut events = self.sessions.borrow().get(&session_id).cloned().unwrap_or_default();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Every timeline as deterministic JSONL: sessions ascending by id,
    /// events ascending by seq, one compact JSON object per line.
    pub fn timelines_jsonl(&self) -> String {
        let mut events = Vec::new();
        for id in self.session_ids() {
            events.extend(self.timeline(id));
        }
        timelines_jsonl(&events)
    }

    /// Discard everything (between load-generator mixes).
    pub fn clear(&self) {
        self.sessions.borrow_mut().clear();
        self.dropped.set(0);
    }
}

impl Collector for EventLog {
    fn record_causal(&self, event: &CausalEvent) {
        self.record(event.clone());
    }
}

/// Render a flat event slice as deterministic JSONL (stably sorted by
/// `(session_id, seq)`); shared by [`EventLog::timelines_jsonl`] and
/// consumers holding raw [`crate::MemoryCollector`] buffers.
pub fn timelines_jsonl(events: &[CausalEvent]) -> String {
    let mut sorted: Vec<&CausalEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.session_id, e.seq));
    let mut out = String::new();
    for e in sorted {
        out.push_str(&e.to_json().to_string_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn log_obs(cap: usize) -> (Obs, Arc<EventLog>) {
        let log = Arc::new(EventLog::new(cap));
        (Obs::new(log.clone()), log)
    }

    #[test]
    fn disabled_scope_is_inert() {
        let scope = EventScope::new(&Obs::disabled(), 7, "mobile");
        assert!(!scope.is_enabled());
        scope.emit("state");
        scope.emit_state("done");
        scope.emit_frame("deliver", "ot_a");
        scope.emit_n("retransmit", 2);
        assert_eq!(scope.session_id(), 0);
    }

    #[test]
    fn scope_actors_share_one_sequence() {
        let (obs, log) = log_obs(64);
        let manager = EventScope::new(&obs, 3, "manager");
        let mobile = manager.with_actor("mobile");
        let server = manager.with_actor("server");
        manager.emit_frame("deliver", "ot_a");
        mobile.emit_state("ot_round_a");
        server.emit_state("ot_round_a");
        manager.emit_n("retransmit", 1);
        let timeline = log.timeline(3);
        assert_eq!(timeline.len(), 4);
        assert_eq!(
            timeline.iter().map(|e| (e.seq, e.actor)).collect::<Vec<_>>(),
            vec![(0, "manager"), (1, "mobile"), (2, "server"), (3, "manager")]
        );
    }

    #[test]
    fn per_session_cap_bounds_and_counts_drops() {
        let (obs, log) = log_obs(4);
        let scope = EventScope::new(&obs, 9, "manager");
        for _ in 0..10 {
            scope.emit("deliver");
        }
        assert_eq!(log.timeline(9).len(), 4);
        assert_eq!(log.dropped(), 6);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn jsonl_export_is_sorted_and_round_trips() {
        let (obs, log) = log_obs(64);
        // Sessions created out of order; export must sort by (id, seq).
        let b = EventScope::new(&obs, 2, "manager");
        let a = EventScope::new(&obs, 1, "mobile");
        b.emit_frame("deliver", "ot_a");
        a.emit_state("ot_round_a");
        b.emit_n("retransmit", 1);
        let jsonl = log.timelines_jsonl();
        // Fixed key order, and `None` fields are omitted, not `null`.
        assert_eq!(
            jsonl.lines().collect::<Vec<_>>(),
            vec![
                r#"{"type":"causal","session":1,"seq":0,"actor":"mobile","kind":"state","state":"ot_round_a"}"#,
                r#"{"type":"causal","session":2,"seq":0,"actor":"manager","kind":"deliver","frame":"ot_a"}"#,
                r#"{"type":"causal","session":2,"seq":1,"actor":"manager","kind":"retransmit","n":1}"#,
            ]
        );
        // Every line parses back to the object `to_json` wrote.
        let events = [log.timeline(1), log.timeline(2)].concat();
        for (line, event) in jsonl.lines().zip(&events) {
            assert_eq!(Json::parse(line).expect("json"), event.to_json());
        }
        // Byte-determinism of the export itself.
        assert_eq!(jsonl, log.timelines_jsonl());
    }
}
