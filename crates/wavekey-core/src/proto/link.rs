//! The frame channel between the two parties of one session, and the
//! link-layer recovery (ARQ) that runs over it.
//!
//! The machines never see the channel. A concurrent driver takes frames
//! off its transport and hands each to the session's [`Link`], which
//! applies the adversary's verdict, recovers what the retry policy
//! allows, stamps the logical arrival time, and queues what the
//! receiving machine should see. The gateway's `SimNet` attaches one
//! [`Link`] to every connection, shared by both ends. The lockstep
//! [`crate::proto::driver`] keeps its own strictly alternating schedule
//! and is the bit-identity oracle for this path.
//!
//! * [`Link`] — one session's channel model: departure stamps, the
//!   adversary's interception of every frame, drop retransmission, NAK
//!   re-sends from the clean copy, duplicates, reorder holds and
//!   future-kind deferral.
//! * `LinkDiscipline` — the budgeted recovery policy for **one
//!   session** (both directions share its budgets).
//!
//! Causal events (`retransmit`, `nak`, `duplicate`, `reorder_hold`,
//! `reorder_release`, `defer`, `deliver`) go to the scope the receiving
//! party passes in, so they land in its timeline in delivery order.

use std::collections::VecDeque;

use crate::agreement::{AgreementError, RetryPolicy};
use crate::channel::{Adversary, AdversaryAction, Direction, MessageKind};
use crate::proto::{replay_cap, Frame};
use wavekey_obs::EventScope;

/// One direction of a [`Link`].
#[derive(Debug, Default)]
struct Lane {
    /// Departure stamps of the frames on the wire, in send order.
    departures: VecDeque<f64>,
    /// Backoff the sender owes its clock for resends the receiving end
    /// ran on its behalf.
    owed: f64,
    /// Frames that crossed, with their arrival times, for the receiver.
    ready: VecDeque<(Frame, f64)>,
    /// A reordered frame, held behind the next one to cross.
    held: Option<(Frame, f64)>,
    /// Frames of a kind the receiver does not expect yet.
    deferred: Vec<(Frame, f64)>,
}

impl Lane {
    /// Queues a frame for the receiver and releases a held one behind it.
    fn push(&mut self, frame: Frame, arrival: f64, events: &EventScope) {
        self.ready.push_back((frame, arrival));
        self.release(events);
    }

    fn release(&mut self, events: &EventScope) {
        if let Some(held) = self.held.take() {
            events.emit("reorder_release");
            self.ready.push_back(held);
        }
    }
}

/// Pops the front of `queue`, freeing its buffer once it is empty: a
/// session's lanes hold a frame or two at a time, and nothing between
/// frames.
fn pop_front<T>(queue: &mut VecDeque<T>) -> Option<T> {
    let front = queue.pop_front();
    if queue.is_empty() {
        *queue = VecDeque::new();
    }
    front
}

fn lane(dir: Direction) -> usize {
    match dir {
        Direction::MobileToServer => 0,
        Direction::ServerToMobile => 1,
    }
}

/// One session's frame channel, shared by both parties.
///
/// The sender stamps every frame it writes with its logical clock
/// ([`Link::depart`]). The receiver hands every frame it decodes to
/// [`Link::arrive`], which pairs it with its stamp (frames and stamps
/// travel in the same order), and takes deliveries from [`Link::next`].
/// A frame arrives at its departure plus the channel delay, as in the
/// lockstep driver: whatever the sender computed before sending, and
/// whatever a relay added in flight, counts against the receiver's
/// `2 + τ` fence.
///
/// Under an adversary every crossing is intercepted:
///
/// * `Drop` — the frame is sent again, up to `retry.max_retries` times.
///   Each retry departs one backoff later, and the sender owes that
///   backoff to its clock ([`Link::owed`]).
/// * Corrupt or truncate — a frame the codec rejects, or (retries on)
///   one that differs from the clean copy the link kept, is NAK'd: the
///   clean copy crosses again, at one backoff charged to the sender,
///   within the session's NAK budget. Past it the session fails with
///   [`AgreementError::Wire`].
/// * `Duplicate` — delivered twice; the machines answer the second copy
///   from their replay caches.
/// * `Reorder` — held behind the next frame the receiver takes off the
///   wire, and released before the receiver waits for more
///   ([`Link::release`]).
/// * `Delay(s)` — arrives `s` later.
///
/// With retries off ([`RetryPolicy::none`]) the link keeps no clean
/// copy: drops are final, and a corrupted frame that still decodes
/// reaches the machine as the adversary left it. Without an adversary a
/// frame goes straight through.
///
/// The recovery budgets are per session and bind to the retry policy of
/// the first party to receive; both parties of a session run one
/// `AgreementConfig`.
#[derive(Debug, Default)]
pub struct Link {
    disc: Option<LinkDiscipline>,
    lanes: [Lane; 2],
}

impl Link {
    /// A link with nothing on the wire.
    pub fn new() -> Link {
        Link::default()
    }

    /// Stamps the next frame the sender in `dir` writes with its
    /// departure time, the sender's logical `clock`.
    pub fn depart(&mut self, dir: Direction, clock: f64) {
        self.lanes[lane(dir)].departures.push_back(clock);
    }

    /// Takes the backoff the sender in `dir` owes its clock for the
    /// resends the receiving end ran on its behalf (drop
    /// retransmissions and NAK re-sends). The sender charges it before
    /// it handles its next frame, so its later frames depart later.
    pub fn owed(&mut self, dir: Direction) -> f64 {
        std::mem::take(&mut self.lanes[lane(dir)].owed)
    }

    /// Total frames recovery put back on the wire (drop retransmissions
    /// + NAK re-sends).
    pub fn retransmits(&self) -> u64 {
        self.disc.as_ref().map_or(0, LinkDiscipline::retransmits)
    }

    /// Passes one frame the receiver in `dir` decoded off its transport
    /// through the channel, with `delay` the nominal one-way delay and
    /// `retry` the receiver's policy. What crosses waits in
    /// [`Link::next`]; a frame lost for good leaves nothing.
    ///
    /// # Errors
    ///
    /// [`AgreementError::Wire`] for a frame its sender never stamped, or
    /// one the adversary damaged past the NAK budget (or with retries
    /// off).
    pub fn arrive(
        &mut self,
        dir: Direction,
        frame: Frame,
        delay: f64,
        retry: &RetryPolicy,
        adversary: Option<&mut dyn Adversary>,
        events: &EventScope,
    ) -> Result<(), AgreementError> {
        let Link { disc, lanes } = self;
        let disc = disc.get_or_insert_with(|| LinkDiscipline::new(*retry));
        let lane = &mut lanes[lane(dir)];
        let Some(departure) = pop_front(&mut lane.departures) else {
            return Err(AgreementError::Wire(format!("unstamped {:?} frame", frame.kind)));
        };
        let mut arrival = departure + delay;
        let Some(adversary) = adversary else {
            lane.push(frame, arrival, events);
            return Ok(());
        };
        let kind = frame.kind;
        let clean = disc.enabled().then(|| frame.clone());
        let mut first = Some(frame);
        let mut attempt = 0u32;
        loop {
            let mut wire = match first.take() {
                Some(frame) => frame,
                None => clean.clone().expect("only retries cross twice"),
            };
            let action = adversary.intercept(dir, &mut wire);
            if action == AdversaryAction::Drop {
                let Some(backoff) = disc.drop_retry(&mut attempt) else {
                    return Ok(()); // lost; idle eviction claims the session
                };
                events.emit_full("retransmit", None, Some(kind.label()), Some(attempt as u64));
                lane.owed += backoff;
                arrival += backoff;
                continue;
            }
            // The link layer's check: the codec must take the bytes, and
            // with retries on they must match the clean copy.
            let damage = match Frame::decode(&wire.encode()) {
                Err(e) => Some(e.to_string()),
                Ok(_) if clean.as_ref().is_some_and(|c| *c != wire) => {
                    Some("corrupted frame".to_string())
                }
                Ok(_) => None,
            };
            if let Some(damage) = damage {
                let Some(backoff) = clean.as_ref().and_then(|_| disc.nak_retry()) else {
                    return Err(AgreementError::Wire(damage));
                };
                let used = Some(disc.nak_budget_used() as u64);
                events.emit_full("nak", None, Some(kind.label()), used);
                lane.owed += backoff;
                arrival += backoff;
                attempt = 0;
                continue;
            }
            match action {
                AdversaryAction::Delay(extra) => lane.push(wire, arrival + extra, events),
                AdversaryAction::Duplicate => {
                    events.emit_frame("duplicate", kind.label());
                    lane.push(wire.clone(), arrival, events);
                    lane.push(wire, arrival, events);
                }
                AdversaryAction::Reorder => {
                    // A second reorder releases the first hold.
                    events.emit_frame("reorder_hold", kind.label());
                    lane.release(events);
                    lane.held = Some((wire, arrival));
                }
                _ => lane.push(wire, arrival, events),
            }
            return Ok(());
        }
    }

    /// The next frame for the receiver in `dir`, with its arrival time,
    /// given the kind its machine `expected`. A deferred frame that has
    /// become current goes first. With retries on, a frame of a later
    /// kind than expected is deferred within the session's budget
    /// instead of failing the machine.
    pub fn next(
        &mut self,
        dir: Direction,
        expected: Option<MessageKind>,
        events: &EventScope,
    ) -> Option<(Frame, f64)> {
        let Link { disc, lanes } = self;
        let lane = &mut lanes[lane(dir)];
        let next = match lane.deferred.iter().position(|(f, _)| Some(f.kind) == expected) {
            Some(pos) => lane.deferred.remove(pos),
            None => loop {
                let (frame, arrival) = pop_front(&mut lane.ready)?;
                if disc.as_mut().is_some_and(|d| d.should_defer(expected, frame.kind)) {
                    events.emit_frame("defer", frame.kind.label());
                    lane.deferred.push((frame, arrival));
                    continue;
                }
                break (frame, arrival);
            },
        };
        events.emit_frame("deliver", next.0.kind.label());
        Some(next)
    }

    /// Releases the frame held for the receiver in `dir` by a reorder;
    /// the receiver calls it once it has drained what it read, before
    /// it waits for more.
    pub fn release(&mut self, dir: Direction, events: &EventScope) {
        self.lanes[lane(dir)].release(events);
    }
}

/// The budgeted recovery policy for one session.
///
/// All budgets are **session-level**: both directions of the exchange
/// draw from the same NAK and defer allowances, so a flood of
/// recoverable faults on one leg exhausts the session, not just that
/// leg. Each method makes one link-layer decision *and* performs its
/// bookkeeping, so no caller can consume a budget without counting it:
///
/// * [`drop_retry`](Self::drop_retry) — may a vanished frame go back on
///   the wire, and at what backoff?
/// * [`nak_retry`](Self::nak_retry) — may a failed delivery be NAK'd
///   for a clean retransmission, and at what backoff?
/// * [`should_defer`](Self::should_defer) — may an out-of-order frame
///   be parked instead of failing the session?
///
/// The backoff seconds returned are charged to the *sender* ([`Link`]
/// adds them to the frame's departure and to what the sender owes its
/// clock): recovered deadline-critical messages arrive later, keeping
/// the `2 + τ` fence honest.
#[derive(Debug, Clone)]
pub(crate) struct LinkDiscipline {
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
    use crate::channel::{Delayer, Dropper};
    use crate::fault::{FaultKind, FaultPlan, ScheduledFault};

    const M2S: Direction = Direction::MobileToServer;

    fn frame(kind: MessageKind) -> Frame {
        Frame::new(kind, vec![0xA5; 16])
    }

    /// A plan firing each `(kind, fault)` on that kind's first crossing.
    fn plan(faults: &[(MessageKind, FaultKind)]) -> FaultPlan {
        let schedule = faults
            .iter()
            .map(|&(kind, fault)| ScheduledFault { direction: M2S, kind, occurrence: 0, fault })
            .collect();
        FaultPlan::scripted(1, schedule)
    }

    /// Stamps and hands one frame to the link; returns what it delivers.
    fn cross(
        link: &mut Link,
        kind: MessageKind,
        departure: f64,
        retry: &RetryPolicy,
        adversary: Option<&mut dyn Adversary>,
    ) -> Result<Vec<(Frame, f64)>, AgreementError> {
        let events = EventScope::disabled();
        link.depart(M2S, departure);
        link.arrive(M2S, frame(kind), 0.001, retry, adversary, &events)?;
        link.release(M2S, &events);
        Ok(std::iter::from_fn(|| link.next(M2S, Some(kind), &events)).collect())
    }

    #[test]
    fn arrival_is_the_senders_departure_plus_delay_and_any_relay_delay() {
        let mut link = Link::new();
        let out = cross(&mut link, MessageKind::OtB, 14.0, &RetryPolicy::none(), None).unwrap();
        assert_eq!(out, vec![(frame(MessageKind::OtB), 14.001)]);
        let mut relay = Delayer { target: Some(MessageKind::OtB), extra: 11.0 };
        let none = RetryPolicy::none();
        let out = cross(&mut link, MessageKind::OtB, 2.5, &none, Some(&mut relay)).unwrap();
        assert_eq!(out[0].1, 2.5 + 0.001 + 11.0);
    }

    #[test]
    fn unstamped_frames_are_refused() {
        let mut link = Link::new();
        let err = link
            .arrive(
                M2S,
                frame(MessageKind::OtA),
                0.001,
                &RetryPolicy::none(),
                None,
                &EventScope::disabled(),
            )
            .unwrap_err();
        assert!(matches!(err, AgreementError::Wire(_)), "{err:?}");
    }

    #[test]
    fn retried_drops_arrive_late_and_bill_the_sender() {
        let retry = RetryPolicy::arq();
        let mut drop = plan(&[(MessageKind::OtE, FaultKind::Drop)]);
        let mut link = Link::new();
        let out = cross(&mut link, MessageKind::OtE, 3.0, &retry, Some(&mut drop)).unwrap();
        assert_eq!(out, vec![(frame(MessageKind::OtE), 3.001 + retry.backoff(1))]);
        assert_eq!(link.retransmits(), 1);
        assert_eq!(link.owed(M2S), retry.backoff(1));
        assert_eq!(link.owed(M2S), 0.0, "owed backoff is taken once");
        // Without retries the same drop is final: nothing crosses.
        let mut jam = Dropper { target: MessageKind::OtE };
        let out =
            cross(&mut Link::new(), MessageKind::OtE, 3.0, &RetryPolicy::none(), Some(&mut jam));
        assert!(out.unwrap().is_empty());
    }

    #[test]
    fn damaged_frames_are_nakd_from_the_clean_copy_or_fail_without_retries() {
        let (ot_b, retry, none) = (MessageKind::OtB, RetryPolicy::arq(), RetryPolicy::none());
        for fault in [FaultKind::Corrupt, FaultKind::Truncate] {
            let mut link = Link::new();
            let out = cross(&mut link, ot_b, 2.0, &retry, Some(&mut plan(&[(ot_b, fault)])));
            assert_eq!(out.unwrap(), vec![(frame(ot_b), 2.001 + retry.backoff(1))], "{fault:?}");
            assert_eq!(link.retransmits(), 1);

            let got = cross(&mut Link::new(), ot_b, 2.0, &none, Some(&mut plan(&[(ot_b, fault)])));
            match fault {
                // No clean copy to compare against: the flipped byte goes through.
                FaultKind::Corrupt => assert_ne!(got.unwrap()[0].0, frame(ot_b)),
                _ => assert!(matches!(got, Err(AgreementError::Wire(_))), "{got:?}"),
            }
        }
    }

    #[test]
    fn duplicates_cross_twice_and_reorders_wait_behind_the_next_frame() {
        let retry = RetryPolicy::arq();
        let events = EventScope::disabled();
        let mut faults = plan(&[
            (MessageKind::OtA, FaultKind::Reorder),
            (MessageKind::OtB, FaultKind::Duplicate),
        ]);
        let mut link = Link::new();
        for kind in [MessageKind::OtA, MessageKind::OtB] {
            link.depart(M2S, 2.0);
            link.arrive(M2S, frame(kind), 0.001, &retry, Some(&mut faults), &events).unwrap();
        }
        // The receiver expects M_A: both M_B copies overtook it and are
        // deferred until M_A has been handled.
        let (first, _) = link.next(M2S, Some(MessageKind::OtA), &events).unwrap();
        assert_eq!(first.kind, MessageKind::OtA);
        let rest: Vec<MessageKind> =
            std::iter::from_fn(|| link.next(M2S, Some(MessageKind::OtB), &events))
                .map(|(f, _)| f.kind)
                .collect();
        assert_eq!(rest, vec![MessageKind::OtB, MessageKind::OtB]);
        assert_eq!(link.retransmits(), 0, "replays are not retransmissions");
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
