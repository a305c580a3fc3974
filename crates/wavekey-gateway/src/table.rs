//! The gateway's session table.
//!
//! The gateway tracks every connection it accepted in one
//! [`SessionTable`]: a map from connection id to the session's terminal
//! outcome, plus live, peak-live, completed, failed and evicted gauges.
//! The gateway is `!Send` and every task runs on the executor's one
//! thread, so the map sits in a `RefCell` and the gauges in `Cell`s: no
//! lock or atomic guards state that no second thread can reach.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use wavekey_core::agreement::AgreementError;

/// Why the gateway removed a session before it finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// The peer went silent (or disappeared) past the idle budget.
    Idle,
    /// The connection's write queue stopped draining — the peer accepts
    /// no bytes and the bounded queue refuses to grow.
    Backpressure,
    /// The gateway is shutting down and rejected the connection before
    /// a session started.
    Shutdown,
}

impl EvictReason {
    /// The metric label value (`wavekey_evictions_total{reason=...}`).
    pub fn label(self) -> &'static str {
        match self {
            EvictReason::Idle => "idle",
            EvictReason::Backpressure => "backpressure",
            EvictReason::Shutdown => "shutdown",
        }
    }
}

/// Terminal record for one session.
#[derive(Debug, Clone)]
pub enum SessionOutcome {
    /// Agreement completed; the server-side key.
    Done(Vec<u8>),
    /// The protocol failed with a machine-level error.
    Failed(AgreementError),
    /// The gateway evicted the session.
    Evicted(EvictReason),
}

/// Map from connection id to its terminal outcome (`None` while live).
#[derive(Debug, Default)]
pub struct SessionTable {
    sessions: RefCell<HashMap<u64, Option<SessionOutcome>>>,
    live: Cell<u64>,
    peak_live: Cell<u64>,
    completed: Cell<u64>,
    failed: Cell<u64>,
    evicted: Cell<u64>,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> SessionTable {
        SessionTable::default()
    }

    /// Registers a new in-flight session.
    pub fn insert(&self, id: u64) {
        self.sessions.borrow_mut().insert(id, None);
        let live = self.live.get() + 1;
        self.live.set(live);
        self.peak_live.set(self.peak_live.get().max(live));
    }

    /// Records a terminal outcome for `id` and drops it from the live
    /// set. The first terminal outcome wins: later ones for the same id
    /// (an eviction racing a completion) are ignored, and so are unknown
    /// ids.
    pub fn finish(&self, id: u64, outcome: SessionOutcome) {
        let mut sessions = self.sessions.borrow_mut();
        let Some(slot @ None) = sessions.get_mut(&id) else { return };
        let gauge = match &outcome {
            SessionOutcome::Done(_) => &self.completed,
            SessionOutcome::Failed(_) => &self.failed,
            SessionOutcome::Evicted(_) => &self.evicted,
        };
        gauge.set(gauge.get() + 1);
        *slot = Some(outcome);
        self.live.set(self.live.get() - 1);
    }

    /// Sessions inserted but not yet finished.
    pub fn live(&self) -> u64 {
        self.live.get()
    }

    /// High-water mark of [`live`](Self::live).
    pub fn peak_live(&self) -> u64 {
        self.peak_live.get()
    }

    /// Sessions that completed the agreement.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Sessions that failed with a protocol error.
    pub fn failed(&self) -> u64 {
        self.failed.get()
    }

    /// Sessions evicted by the gateway.
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }

    /// The outcome for one session, if terminal.
    pub fn outcome(&self, id: u64) -> Option<SessionOutcome> {
        self.sessions.borrow().get(&id).cloned().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_and_peak_track_insert_and_finish() {
        let table = SessionTable::new();
        for id in 1..=10 {
            table.insert(id);
        }
        assert_eq!(table.live(), 10);
        assert_eq!(table.peak_live(), 10);
        for id in 1..=6 {
            table.finish(id, SessionOutcome::Done(vec![id as u8]));
        }
        table.finish(7, SessionOutcome::Evicted(EvictReason::Idle));
        table.finish(8, SessionOutcome::Failed(AgreementError::ConfirmationFailed));
        assert_eq!(table.live(), 2);
        assert_eq!(table.peak_live(), 10);
        assert_eq!(table.completed(), 6);
        assert_eq!(table.evicted(), 1);
        assert_eq!(table.failed(), 1);
    }

    #[test]
    fn first_terminal_outcome_wins() {
        let table = SessionTable::new();
        table.insert(3);
        table.finish(3, SessionOutcome::Done(vec![9]));
        table.finish(3, SessionOutcome::Evicted(EvictReason::Idle));
        assert!(matches!(table.outcome(3), Some(SessionOutcome::Done(k)) if k == vec![9]));
        assert_eq!(table.live(), 0);
        assert_eq!(table.evicted(), 0);
    }
}
