//! Deterministic wire-layer fault injection.
//!
//! [`FaultPlan`] is an [`Adversary`] that injects drop / corrupt /
//! duplicate / reorder / truncate / delay faults into the frame stream,
//! fully determined by a seed: the decision for the `n`-th transmission
//! of a given `(Direction, MessageKind)` is a pure hash of
//! `(seed, direction, kind, n)`, so the same plan over the same protocol
//! run injects exactly the same faults — chaos runs are replayable and
//! the `fault_soak` gate is stable.
//!
//! Two ways to build a plan:
//!
//! * [`FaultPlan::new`] — rate-based: a [`FaultProfile`] gives per-kind
//!   probabilities; occurrences are sampled via the deterministic hash.
//! * [`FaultPlan::scripted`] — explicit [`ScheduledFault`] entries
//!   (fire fault F on the `n`-th occurrence of kind K in direction D),
//!   for targeted recovery tests.

use crate::channel::{Adversary, AdversaryAction, Direction, MessageKind};
use crate::proto::frame::Frame;
use std::collections::HashMap;

/// One kind of injected wire fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame vanishes ([`AdversaryAction::Drop`]).
    Drop,
    /// One payload byte is XOR-flipped; the frame still parses.
    Corrupt,
    /// The frame is delivered twice ([`AdversaryAction::Duplicate`]).
    Duplicate,
    /// The frame is held behind the next one ([`AdversaryAction::Reorder`]).
    Reorder,
    /// The datagram is cut short: the payload loses its tail and the
    /// version byte is mangled, so the receiving codec rejects the bytes
    /// (driving the NAK/retransmit path).
    Truncate,
    /// The frame is delivered late ([`AdversaryAction::Delay`]).
    Delay,
}

/// Per-transmission fault probabilities (each in `[0, 1]`; their sum is
/// the total per-transmission fault rate and must stay ≤ 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a transmission is dropped.
    pub drop: f64,
    /// Probability one payload byte is flipped.
    pub corrupt: f64,
    /// Probability a transmission is duplicated.
    pub duplicate: f64,
    /// Probability a transmission is reordered behind the next.
    pub reorder: f64,
    /// Probability a transmission is truncated into garbage.
    pub truncate: f64,
    /// Probability a transmission is delayed by `delay_s`.
    pub delay: f64,
    /// Extra latency of a delayed transmission (seconds).
    pub delay_s: f64,
}

impl FaultProfile {
    /// No faults at all.
    pub fn none() -> FaultProfile {
        FaultProfile {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            truncate: 0.0,
            delay: 0.0,
            delay_s: 0.0,
        }
    }

    /// The reference chaos mixture used by the `fault_soak` bench and the
    /// CI gate: ~33% of transmissions are faulted. Without recovery most
    /// faults are fatal (a drop desynchronizes the machines, a truncation
    /// or corruption poisons a party), so a no-retry 8-transmission
    /// session rarely survives — the soak measures ≈ 19%. With the
    /// recovery layer every kind is handled (retransmit, NAK, duplicate
    /// suppression, reorder deferral, slack-absorbed delay) and survival
    /// returns to ≈ 100%.
    pub fn reference() -> FaultProfile {
        FaultProfile {
            drop: 0.12,
            corrupt: 0.02,
            duplicate: 0.05,
            reorder: 0.04,
            truncate: 0.06,
            delay: 0.04,
            delay_s: 0.02,
        }
    }

    fn total(&self) -> f64 {
        self.drop + self.corrupt + self.duplicate + self.reorder + self.truncate + self.delay
    }
}

/// A scripted fault: fire `fault` on the `occurrence`-th transmission
/// (0-based) of `kind` in `direction`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Which way the targeted transmission travels.
    pub direction: Direction,
    /// The targeted message kind.
    pub kind: MessageKind,
    /// Which occurrence of `(direction, kind)` to hit (0-based; the
    /// occurrence counter includes retransmissions, so occurrence 1 of a
    /// kind whose occurrence 0 was dropped is its first retry).
    pub occurrence: u64,
    /// The fault to inject.
    pub fault: FaultKind,
}

/// A fault the plan actually injected (diagnostics / assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Direction of the faulted transmission.
    pub direction: Direction,
    /// Kind of the faulted transmission.
    pub kind: MessageKind,
    /// Occurrence index that was hit.
    pub occurrence: u64,
    /// What was injected.
    pub fault: FaultKind,
}

/// Seeded, deterministic fault-injecting adversary. See the module docs.
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
    schedule: Vec<ScheduledFault>,
    counts: HashMap<(Direction, MessageKind), u64>,
    injected: Vec<InjectedFault>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("profile", &self.profile)
            .field("scheduled", &self.schedule.len())
            .field("injected", &self.injected.len())
            .finish()
    }
}

/// SplitMix64 finalizer: the avalanche mixer behind the plan's
/// deterministic decisions.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A rate-based plan: every transmission of every kind is faulted
    /// independently with the profile's probabilities.
    ///
    /// # Panics
    ///
    /// Panics if the profile's rates sum to more than 1.
    pub fn new(seed: u64, profile: FaultProfile) -> FaultPlan {
        assert!(profile.total() <= 1.0 + 1e-12, "fault rates must sum to ≤ 1");
        FaultPlan {
            seed,
            profile,
            schedule: Vec::new(),
            counts: HashMap::new(),
            injected: Vec::new(),
        }
    }

    /// A purely scripted plan (no rate-based faults).
    pub fn scripted(seed: u64, schedule: Vec<ScheduledFault>) -> FaultPlan {
        let mut plan = FaultPlan::new(seed, FaultProfile::none());
        plan.schedule = schedule;
        plan
    }

    /// Every fault injected so far, in interception order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }

    /// A uniform value in `[0, 1)` that is a pure function of
    /// `(seed, salt, direction, kind, occurrence)`.
    fn unit(&self, salt: u64, direction: Direction, kind: MessageKind, occurrence: u64) -> f64 {
        let dir = match direction {
            Direction::MobileToServer => 1u64,
            Direction::ServerToMobile => 2u64,
        };
        let h = mix(
            self.seed
                ^ mix(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                ^ (dir << 8)
                ^ ((kind.wire_tag() as u64) << 16)
                ^ occurrence.wrapping_mul(0xd1b5_4a32_d192_ed03),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn decide(
        &self,
        direction: Direction,
        kind: MessageKind,
        occurrence: u64,
    ) -> Option<FaultKind> {
        if let Some(s) = self.schedule.iter().find(|s| {
            s.direction == direction && s.kind == kind && s.occurrence == occurrence
        }) {
            return Some(s.fault);
        }
        let u = self.unit(0, direction, kind, occurrence);
        let p = &self.profile;
        let mut edge = p.drop;
        if u < edge {
            return Some(FaultKind::Drop);
        }
        edge += p.corrupt;
        if u < edge {
            return Some(FaultKind::Corrupt);
        }
        edge += p.duplicate;
        if u < edge {
            return Some(FaultKind::Duplicate);
        }
        edge += p.reorder;
        if u < edge {
            return Some(FaultKind::Reorder);
        }
        edge += p.truncate;
        if u < edge {
            return Some(FaultKind::Truncate);
        }
        edge += p.delay;
        if u < edge {
            return Some(FaultKind::Delay);
        }
        None
    }
}

impl Adversary for FaultPlan {
    fn intercept(&mut self, direction: Direction, frame: &mut Frame) -> AdversaryAction {
        let kind = frame.kind;
        let counter = self.counts.entry((direction, kind)).or_insert(0);
        let occurrence = *counter;
        *counter += 1;
        let Some(fault) = self.decide(direction, kind, occurrence) else {
            return AdversaryAction::Forward;
        };
        self.injected.push(InjectedFault { direction, kind, occurrence, fault });
        match fault {
            FaultKind::Drop => AdversaryAction::Drop,
            FaultKind::Duplicate => AdversaryAction::Duplicate,
            FaultKind::Reorder => AdversaryAction::Reorder,
            FaultKind::Delay => AdversaryAction::Delay(self.profile.delay_s),
            FaultKind::Corrupt => {
                if !frame.payload.is_empty() {
                    let idx = (self.unit(1, direction, kind, occurrence)
                        * frame.payload.len() as f64) as usize;
                    let idx = idx.min(frame.payload.len() - 1);
                    frame.payload[idx] ^= 0x01;
                }
                AdversaryAction::Forward
            }
            FaultKind::Truncate => {
                let keep = frame.payload.len() / 2;
                frame.payload.truncate(keep);
                frame.version = 0;
                AdversaryAction::Forward
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: MessageKind) -> Frame {
        Frame::new(kind, vec![0xAAu8; 64])
    }

    fn run_plan(plan: &mut FaultPlan, n: usize) -> Vec<(AdversaryAction, Frame)> {
        let mut out = Vec::new();
        for i in 0..n {
            let kind = MessageKind::ALL[i % MessageKind::ALL.len()];
            let dir = if i % 2 == 0 {
                Direction::MobileToServer
            } else {
                Direction::ServerToMobile
            };
            let mut f = frame(kind);
            let action = plan.intercept(dir, &mut f);
            out.push((action, f));
        }
        out
    }

    #[test]
    fn same_seed_same_faults_different_seed_differs() {
        let mut a = FaultPlan::new(7, FaultProfile::reference());
        let mut b = FaultPlan::new(7, FaultProfile::reference());
        let ra = run_plan(&mut a, 200);
        let rb = run_plan(&mut b, 200);
        assert_eq!(ra, rb);
        assert_eq!(a.injected(), b.injected());
        assert!(!a.injected().is_empty(), "reference profile injects at ~30%/transmission");

        let mut c = FaultPlan::new(8, FaultProfile::reference());
        let rc = run_plan(&mut c, 200);
        assert_ne!(ra, rc, "different seeds give different fault sequences");
    }

    #[test]
    fn reference_rates_are_roughly_respected() {
        let mut plan = FaultPlan::new(42, FaultProfile::reference());
        run_plan(&mut plan, 4000);
        let total = plan.injected().len() as f64 / 4000.0;
        // Reference profile sums to 0.33/transmission.
        assert!((0.28..0.38).contains(&total), "observed fault rate {total}");
        let drops =
            plan.injected().iter().filter(|f| f.fault == FaultKind::Drop).count() as f64 / 4000.0;
        assert!((0.08..0.16).contains(&drops), "observed drop rate {drops}");
    }

    #[test]
    fn scripted_faults_fire_on_the_exact_occurrence() {
        let mut plan = FaultPlan::scripted(
            0,
            vec![ScheduledFault {
                direction: Direction::MobileToServer,
                kind: MessageKind::OtB,
                occurrence: 1,
                fault: FaultKind::Drop,
            }],
        );
        let mut f = frame(MessageKind::OtB);
        assert_eq!(plan.intercept(Direction::MobileToServer, &mut f), AdversaryAction::Forward);
        // Wrong direction does not advance the targeted counter.
        let mut f = frame(MessageKind::OtB);
        assert_eq!(plan.intercept(Direction::ServerToMobile, &mut f), AdversaryAction::Forward);
        let mut f = frame(MessageKind::OtB);
        assert_eq!(plan.intercept(Direction::MobileToServer, &mut f), AdversaryAction::Drop);
        let mut f = frame(MessageKind::OtB);
        assert_eq!(plan.intercept(Direction::MobileToServer, &mut f), AdversaryAction::Forward);
        assert_eq!(
            plan.injected(),
            &[InjectedFault {
                direction: Direction::MobileToServer,
                kind: MessageKind::OtB,
                occurrence: 1,
                fault: FaultKind::Drop,
            }]
        );
    }

    #[test]
    fn corrupt_keeps_the_frame_parsable_truncate_does_not() {
        let mut plan = FaultPlan::scripted(
            3,
            vec![
                ScheduledFault {
                    direction: Direction::MobileToServer,
                    kind: MessageKind::OtE,
                    occurrence: 0,
                    fault: FaultKind::Corrupt,
                },
                ScheduledFault {
                    direction: Direction::MobileToServer,
                    kind: MessageKind::OtE,
                    occurrence: 1,
                    fault: FaultKind::Truncate,
                },
            ],
        );
        let clean = frame(MessageKind::OtE);
        let mut corrupted = clean.clone();
        assert_eq!(
            plan.intercept(Direction::MobileToServer, &mut corrupted),
            AdversaryAction::Forward
        );
        assert_ne!(corrupted.payload, clean.payload, "one byte flipped");
        assert_eq!(
            corrupted.payload.iter().zip(&clean.payload).filter(|(a, b)| a != b).count(),
            1
        );
        assert!(Frame::decode(&corrupted.encode()).is_ok(), "corrupt frames still parse");

        let mut truncated = clean.clone();
        assert_eq!(
            plan.intercept(Direction::MobileToServer, &mut truncated),
            AdversaryAction::Forward
        );
        assert!(truncated.payload.len() < clean.payload.len());
        assert!(Frame::decode(&truncated.encode()).is_err(), "truncated frames are rejected");
    }
}
