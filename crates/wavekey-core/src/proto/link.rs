//! Transport-agnostic session-core shared by every protocol driver.
//!
//! Two drivers speak the sans-IO machines today — the in-process
//! [`crate::service::SessionManager`] (whole frames over a modelled
//! channel) and the async `wavekey-gateway` (byte streams over simulated
//! sockets) — and both need the same link-layer judgement calls: when a
//! dropped frame may be retransmitted, when a corrupted delivery may be
//! NAK'd for a clean copy, and when an out-of-order frame may be
//! deferred instead of failing the session. This module extracts those
//! decisions from `service.rs` so a transport cannot drift from the
//! recovery semantics the fault-soak gate certifies:
//!
//! * [`LinkDiscipline`] — the budgeted recovery policy for **one
//!   session** (both directions share its budgets, exactly as the
//!   manager always enforced them).
//! * [`Endpoint`] — one party's machine behind a party-agnostic face:
//!   frame routing and accessors, so drivers hold "two endpoints"
//!   rather than matching on mobile/server everywhere.
//!
//! What deliberately stays with the driver: the channel model itself
//! (adversary interception, in-flight queues, clean-copy checksums) and
//! every causal-event emission — event *ordering* is part of the
//! timeline contract, and each driver owns its own ordering.

use crate::agreement::{AgreementError, RetryPolicy};
use crate::channel::MessageKind;
use crate::proto::{replay_cap, Frame, MobileAgreement, ServerAgreement, State};
use wavekey_obs::EventScope;

/// Which party an [`Endpoint`] wraps.
#[derive(Debug)]
pub enum Machine {
    /// The mobile (device) side.
    Mobile(MobileAgreement),
    /// The server (reader) side.
    Server(ServerAgreement),
}

/// One party's protocol machine behind a party-agnostic interface.
///
/// Idle eviction is the driver's business, not the endpoint's: the
/// gateway evicts on executor timers, and the manager counts idle
/// visits per session because its scheduler visits the session.
#[derive(Debug)]
pub struct Endpoint {
    machine: Machine,
}

impl Endpoint {
    /// Wraps a mobile machine.
    pub fn mobile(machine: MobileAgreement) -> Endpoint {
        Endpoint { machine: Machine::Mobile(machine) }
    }

    /// Wraps a server machine.
    pub fn server(machine: ServerAgreement) -> Endpoint {
        Endpoint { machine: Machine::Server(machine) }
    }

    /// Produces this party's opening `M_A` frame (both parties open; the
    /// OT is bidirectional).
    ///
    /// # Errors
    ///
    /// Delegates the machine's taxonomy (e.g. `start()` outside `Init`).
    pub fn start(&mut self) -> Result<Frame, AgreementError> {
        match &mut self.machine {
            Machine::Mobile(m) => m.start(),
            Machine::Server(s) => s.start(),
        }
    }

    /// Routes one received frame into the machine.
    ///
    /// # Errors
    ///
    /// The machine's full [`AgreementError`] taxonomy.
    pub fn handle(
        &mut self,
        frame: &Frame,
        arrival: f64,
    ) -> Result<Vec<Frame>, AgreementError> {
        match &mut self.machine {
            Machine::Mobile(m) => m.handle(frame, arrival),
            Machine::Server(s) => s.handle(frame, arrival),
        }
    }

    /// Current protocol state.
    pub fn state(&self) -> State {
        match &self.machine {
            Machine::Mobile(m) => m.state(),
            Machine::Server(s) => s.state(),
        }
    }

    /// Whether the machine reached [`State::Done`].
    pub fn is_done(&self) -> bool {
        self.state() == State::Done
    }

    /// The party's logical clock (protocol seconds).
    pub fn clock(&self) -> f64 {
        match &self.machine {
            Machine::Mobile(m) => m.clock(),
            Machine::Server(s) => s.clock(),
        }
    }

    /// Advances the logical clock without booking compute (backoff
    /// billing — see [`RetryPolicy::backoff`]).
    pub fn charge(&mut self, seconds: f64) {
        match &mut self.machine {
            Machine::Mobile(m) => m.charge(seconds),
            Machine::Server(s) => s.charge(seconds),
        }
    }

    /// The message kind the machine is waiting for, if any.
    pub fn expected_kind(&self) -> Option<MessageKind> {
        match &self.machine {
            Machine::Mobile(m) => m.expected_kind(),
            Machine::Server(s) => s.expected_kind(),
        }
    }

    /// The established key (empty until [`State::Done`]).
    pub fn key(&self) -> &[u8] {
        match &self.machine {
            Machine::Mobile(m) => m.key(),
            Machine::Server(s) => s.key(),
        }
    }

    /// The pre-reconciliation key bits (for mismatch diagnostics).
    pub fn preliminary_key(&self) -> &[bool] {
        match &self.machine {
            Machine::Mobile(m) => m.preliminary_key(),
            Machine::Server(s) => s.preliminary_key(),
        }
    }

    /// Binds a causal-event scope to the machine.
    pub fn bind_events(&mut self, scope: EventScope) {
        match &mut self.machine {
            Machine::Mobile(m) => m.bind_events(scope),
            Machine::Server(s) => s.bind_events(scope),
        }
    }

    /// The mobile machine, when this endpoint wraps one.
    pub fn as_mobile(&self) -> Option<&MobileAgreement> {
        match &self.machine {
            Machine::Mobile(m) => Some(m),
            Machine::Server(_) => None,
        }
    }

    /// The server machine, when this endpoint wraps one.
    pub fn as_server(&self) -> Option<&ServerAgreement> {
        match &self.machine {
            Machine::Mobile(_) => None,
            Machine::Server(s) => Some(s),
        }
    }
}

/// The budgeted recovery policy for one session.
///
/// All budgets are **session-level**: both directions of the exchange
/// draw from the same NAK and defer allowances, exactly as the
/// in-process manager always enforced them — a flood of recoverable
/// faults on one leg exhausts the session, not just that leg. Each
/// method makes one link-layer decision *and* performs its bookkeeping,
/// so no caller can consume a budget without counting it:
///
/// * [`drop_retry`](Self::drop_retry) — may a vanished frame go back on
///   the wire, and at what backoff?
/// * [`nak_retry`](Self::nak_retry) — may a failed delivery be NAK'd
///   for a clean retransmission, and at what backoff?
/// * [`should_defer`](Self::should_defer) — may an out-of-order frame
///   be parked instead of failing the session?
///
/// The backoff seconds returned must be charged onto the *sender's*
/// logical clock (see [`crate::proto::PartyCore::charge`] semantics via
/// [`Endpoint::charge`]): recovered deadline-critical messages arrive
/// later, keeping the `2 + τ` fence honest.
#[derive(Debug, Clone)]
pub struct LinkDiscipline {
    retry: RetryPolicy,
    nak_budget_used: u32,
    defers_used: u32,
    retransmits: u64,
}

impl LinkDiscipline {
    /// A discipline enforcing `retry` (use [`RetryPolicy::none`] for the
    /// strict no-recovery link).
    pub fn new(retry: RetryPolicy) -> LinkDiscipline {
        LinkDiscipline { retry, nak_budget_used: 0, defers_used: 0, retransmits: 0 }
    }

    /// Whether any recovery is configured at all.
    pub fn enabled(&self) -> bool {
        self.retry.enabled()
    }

    /// Total frames recovery put back on the wire (drop retransmissions
    /// + NAK re-sends).
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// NAK retransmissions consumed so far (bounded by
    /// [`replay_cap`]).
    pub fn nak_budget_used(&self) -> u32 {
        self.nak_budget_used
    }

    /// A transmitted frame vanished (adversary drop, dead stream):
    /// decide whether attempt `*attempt + 1` may be made. On `Some`,
    /// `attempt` has been advanced, the retransmit counted, and the
    /// returned backoff must be charged to the sender before the retry.
    /// `None` means the policy is exhausted — the frame stays lost and
    /// idle eviction will claim the session.
    pub fn drop_retry(&mut self, attempt: &mut u32) -> Option<f64> {
        if *attempt >= self.retry.max_retries {
            return None;
        }
        *attempt += 1;
        self.retransmits += 1;
        Some(self.retry.backoff(*attempt))
    }

    /// A delivery failed the link layer (undecodable bytes or a
    /// checksum mismatch): decide whether the sender may be NAK'd for a
    /// clean copy. On `Some`, the budget is consumed, the retransmit
    /// counted, and the returned backoff must be charged to the sender.
    pub fn nak_retry(&mut self) -> Option<f64> {
        if !self.retry.enabled() || self.nak_budget_used >= replay_cap(&self.retry) {
            return None;
        }
        self.nak_budget_used += 1;
        self.retransmits += 1;
        Some(self.retry.backoff(self.nak_budget_used.min(self.retry.max_retries)))
    }

    /// An in-order transport handed the receiver a *future* message
    /// kind (its prerequisite was reordered or is still in recovery):
    /// decide whether the frame may be parked for later redelivery. On
    /// `true` the defer budget is consumed — a missing prerequisite
    /// cannot spin the session forever.
    pub fn should_defer(
        &mut self,
        expected: Option<MessageKind>,
        got: MessageKind,
    ) -> bool {
        if !self.retry.enabled() {
            return false;
        }
        let Some(expected) = expected else { return false };
        if got.wire_tag() > expected.wire_tag() && self.defers_used < replay_cap(&self.retry) {
            self.defers_used += 1;
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agreement::AgreementConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_config() -> AgreementConfig {
        AgreementConfig { use_tiny_group: true, tau: 10.0, ..Default::default() }
    }

    fn seeds(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 3 == 0).collect()
    }

    #[test]
    fn endpoints_drive_a_full_agreement() {
        // The endpoint wrapper must be a transparent face over the
        // machines: a lockstep exchange through two Endpoints lands both
        // parties in Done with equal keys.
        let config = tiny_config();
        let s = seeds(24);
        let mobile = MobileAgreement::new(&s, &config, StdRng::seed_from_u64(1)).unwrap();
        let server = ServerAgreement::new(&s, &config, StdRng::seed_from_u64(2)).unwrap();
        let mut a = Endpoint::mobile(mobile);
        let mut b = Endpoint::server(server);
        assert!(a.as_mobile().is_some() && a.as_server().is_none());
        assert!(b.as_server().is_some() && b.as_mobile().is_none());

        let mut to_b = vec![a.start().unwrap()];
        let mut to_a = vec![b.start().unwrap()];
        for _ in 0..8 {
            if a.is_done() && b.is_done() {
                break;
            }
            let mut next_to_b = Vec::new();
            for frame in to_a.drain(..) {
                let arrival = a.clock() + 0.001;
                next_to_b.extend(a.handle(&frame, arrival).unwrap());
            }
            let mut next_to_a = Vec::new();
            for frame in to_b.drain(..) {
                let arrival = b.clock() + 0.001;
                next_to_a.extend(b.handle(&frame, arrival).unwrap());
            }
            to_b = next_to_b;
            to_a = next_to_a;
        }
        assert!(a.is_done(), "mobile state {:?}", a.state());
        assert!(b.is_done(), "server state {:?}", b.state());
        assert_eq!(a.key(), b.key());
        assert!(!a.key().is_empty());
        assert_eq!(a.preliminary_key(), b.preliminary_key());
    }

    #[test]
    fn drop_retry_respects_max_retries_and_bills_backoff() {
        let retry = RetryPolicy::arq();
        let mut disc = LinkDiscipline::new(retry);
        let mut attempt = 0;
        for expected_attempt in 1..=retry.max_retries {
            let backoff = disc.drop_retry(&mut attempt).expect("within budget");
            assert_eq!(attempt, expected_attempt);
            assert_eq!(backoff, retry.backoff(expected_attempt));
        }
        assert_eq!(disc.drop_retry(&mut attempt), None, "budget exhausted");
        assert_eq!(attempt, retry.max_retries);
        assert_eq!(disc.retransmits(), retry.max_retries as u64);
    }

    #[test]
    fn nak_budget_is_session_level_and_capped() {
        let retry = RetryPolicy::arq();
        let mut disc = LinkDiscipline::new(retry);
        let cap = replay_cap(&retry);
        for used in 1..=cap {
            let backoff = disc.nak_retry().expect("within budget");
            assert_eq!(disc.nak_budget_used(), used);
            // Backoff saturates at the max_retries rung.
            assert_eq!(backoff, retry.backoff(used.min(retry.max_retries)));
        }
        assert_eq!(disc.nak_retry(), None, "cap {cap} reached");
        assert_eq!(disc.retransmits(), cap as u64);
    }

    #[test]
    fn nak_is_refused_when_retries_disabled() {
        let mut disc = LinkDiscipline::new(RetryPolicy::none());
        assert!(!disc.enabled());
        assert_eq!(disc.nak_retry(), None);
        let mut attempt = 0;
        assert_eq!(disc.drop_retry(&mut attempt), None);
        assert!(!disc.should_defer(Some(MessageKind::OtA), MessageKind::OtE));
    }

    #[test]
    fn defer_applies_only_to_future_kinds_within_budget() {
        let retry = RetryPolicy::arq();
        let mut disc = LinkDiscipline::new(retry);
        // Past or expected kinds are never deferred.
        assert!(!disc.should_defer(Some(MessageKind::OtB), MessageKind::OtB));
        assert!(!disc.should_defer(Some(MessageKind::OtB), MessageKind::OtA));
        assert!(!disc.should_defer(None, MessageKind::OtE));
        // Future kinds are, up to the replay cap.
        let cap = replay_cap(&retry);
        for _ in 0..cap {
            assert!(disc.should_defer(Some(MessageKind::OtA), MessageKind::OtE));
        }
        assert!(!disc.should_defer(Some(MessageKind::OtA), MessageKind::OtE));
    }
}
