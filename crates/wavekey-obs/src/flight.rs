//! The session flight recorder: a bounded ring of the most recent
//! [`SessionTrace`]s.
//!
//! Long-running services (e.g. `wavekey_core::service::AccessService`)
//! can attach one as their collector and always have the last N sessions
//! available for post-incident inspection without unbounded memory growth.

use crate::collector::Collector;
use crate::trace::SessionTrace;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Bounded ring buffer of recent session traces; usable as a [`Collector`]
/// (spans and events are ignored, sessions are retained).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: RefCell<VecDeque<SessionTrace>>,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` sessions (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder { capacity, ring: RefCell::new(VecDeque::with_capacity(capacity)) }
    }

    /// Number of retained sessions.
    pub fn len(&self) -> usize {
        self.ring.borrow().len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained sessions, oldest first.
    pub fn recent(&self) -> Vec<SessionTrace> {
        self.ring.borrow().iter().cloned().collect()
    }

    /// The most recent session, if any.
    pub fn latest(&self) -> Option<SessionTrace> {
        self.ring.borrow().back().cloned()
    }
}

impl Collector for FlightRecorder {
    /// A recorder keeps session traces only, so causal scopes over it
    /// stay disabled.
    fn records_causal(&self) -> bool {
        false
    }

    fn record_session(&self, trace: &SessionTrace) {
        let mut ring = self.ring.borrow_mut();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record_session(&SessionTrace::new(i));
        }
        let ids: Vec<u64> = rec.recent().iter().map(|t| t.session_id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert_eq!(rec.latest().expect("latest").session_id, 4);
    }

    #[test]
    fn causal_scopes_over_a_recorder_are_disabled() {
        use crate::{EventLog, EventScope, MultiCollector, Obs};
        use std::sync::Arc;
        let rec: Arc<dyn Collector> = Arc::new(FlightRecorder::new(4));
        assert!(!rec.records_causal());
        let obs = Obs::new(Arc::clone(&rec));
        assert!(obs.is_enabled(), "sessions still reach the recorder");
        assert!(!EventScope::new(&obs, 1, "gateway").is_enabled());
        // A fan-out records causal events when any sink does.
        let log: Arc<dyn Collector> = Arc::new(EventLog::new(8));
        let both = MultiCollector::new(vec![Arc::clone(&rec), log]);
        assert!(both.records_causal());
        assert!(EventScope::new(&Obs::new(Arc::new(both)), 1, "gateway").is_enabled());
        assert!(!MultiCollector::new(vec![rec]).records_causal());
    }

    #[test]
    fn capacity_floor_is_one() {
        let rec = FlightRecorder::new(0);
        rec.record_session(&SessionTrace::new(1));
        rec.record_session(&SessionTrace::new(2));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.latest().expect("latest").session_id, 2);
    }
}
