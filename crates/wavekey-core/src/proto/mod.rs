//! Sans-IO protocol state machines for the §IV-D key agreement.
//!
//! The agreement logic lives in two state machines — [`MobileAgreement`]
//! and [`ServerAgreement`] — that never touch a socket, a clock source,
//! or the other party: they consume framed wire messages
//! ([`frame::Frame`]) plus a caller-supplied logical arrival time and
//! produce frames to send. All IO, scheduling, and channel modelling
//! stays with the driver:
//!
//! * [`driver::drive_lockstep`] replays the classic in-process lockstep
//!   exchange (it *is* [`crate::agreement::run_agreement`] now), keeping
//!   protocol outputs bit-identical to the monolithic implementation it
//!   replaced — the per-party RNG draw order is the machines', which is
//!   the monolith's.
//! * [`link::Link`] is the frame channel a concurrent driver runs each
//!   session over: the gateway (`wavekey-gateway`) attaches one to every
//!   connection and interleaves many sessions on its executor.
//!
//! Each machine advances through explicit [`State`]s
//! (`Init → OtRound(i) → Reconcile → Confirm → Done/Failed`), and each
//! *expected message kind* can carry its own arrival deadline via
//! [`DeadlineBudgets`] — the paper's single `2 + τ` fence is the special
//! case that budgets `M_{A,R}` at the mobile and `M_{B,M}` at the server.

pub mod driver;
pub mod frame;
pub mod link;
pub mod mobile;
pub mod server;

pub use frame::{Decoder, Frame, FrameError};
pub use link::Link;
pub use mobile::MobileAgreement;
pub use server::ServerAgreement;

use crate::agreement::{AgreementConfig, AgreementError, AgreementStages};
use crate::bits::PackedBits;
use crate::channel::MessageKind;
use rand::rngs::StdRng;
use std::time::Instant;
use wavekey_crypto::group::Group;
use wavekey_obs::EventScope;

/// Where a protocol machine currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Constructed; `start()` has not produced `M_A` yet.
    Init,
    /// Inside the batched OT: awaiting `M_A` (0), `M_B` (1), `M_E` (2).
    OtRound(u8),
    /// OT finished, preliminary key assembled; the mobile is about to
    /// commit, the server awaits the `Challenge`.
    Reconcile,
    /// Mobile only: challenge sent, awaiting the HMAC `Response`.
    Confirm,
    /// Key established (mobile: verified; server: response sent).
    Done,
    /// A protocol error occurred; the machine accepts nothing further.
    Failed,
}

impl State {
    /// Stable label for causal event timelines.
    pub fn label(self) -> &'static str {
        match self {
            State::Init => "init",
            State::OtRound(0) => "ot_round_a",
            State::OtRound(1) => "ot_round_b",
            State::OtRound(2) => "ot_round_e",
            State::OtRound(_) => "ot_round",
            State::Reconcile => "reconcile",
            State::Confirm => "confirm",
            State::Done => "done",
            State::Failed => "failed",
        }
    }
}

/// Per-message arrival deadlines, in absolute protocol seconds (the
/// logical clock starts at 0 when the gesture starts).
///
/// `None` means unbudgeted. The paper's model budgets exactly two
/// messages — `M_{A,R}` arriving at the mobile and `M_{B,M}` arriving at
/// the server, both at `gesture_window + τ` — which
/// [`DeadlineBudgets::mobile_paper`] / [`DeadlineBudgets::server_paper`]
/// encode. Drivers with different transports can budget any state's
/// expected message via [`DeadlineBudgets::with`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeadlineBudgets {
    ot_a: Option<f64>,
    ot_b: Option<f64>,
    ot_e: Option<f64>,
    challenge: Option<f64>,
    response: Option<f64>,
}

impl DeadlineBudgets {
    /// No deadlines at all.
    pub fn none() -> DeadlineBudgets {
        DeadlineBudgets::default()
    }

    /// The mobile's paper-model budgets: `M_{A,R}` must arrive by
    /// `gesture_window + τ` (§IV-D).
    pub fn mobile_paper(config: &AgreementConfig) -> DeadlineBudgets {
        DeadlineBudgets::none().with(MessageKind::OtA, config.gesture_window + config.tau)
    }

    /// The server's paper-model budgets: `M_{B,M}` must arrive by
    /// `gesture_window + τ` (§IV-D).
    pub fn server_paper(config: &AgreementConfig) -> DeadlineBudgets {
        DeadlineBudgets::none().with(MessageKind::OtB, config.gesture_window + config.tau)
    }

    /// Returns a copy with `kind` budgeted at `deadline` seconds.
    pub fn with(mut self, kind: MessageKind, deadline: f64) -> DeadlineBudgets {
        match kind {
            MessageKind::OtA => self.ot_a = Some(deadline),
            MessageKind::OtB => self.ot_b = Some(deadline),
            MessageKind::OtE => self.ot_e = Some(deadline),
            MessageKind::Challenge => self.challenge = Some(deadline),
            MessageKind::Response => self.response = Some(deadline),
        }
        self
    }

    /// The budget for `kind`, if any.
    pub fn budget(&self, kind: MessageKind) -> Option<f64> {
        match kind {
            MessageKind::OtA => self.ot_a,
            MessageKind::OtB => self.ot_b,
            MessageKind::OtE => self.ot_e,
            MessageKind::Challenge => self.challenge,
            MessageKind::Response => self.response,
        }
    }
}

/// The party-agnostic half of a protocol machine: configuration, group,
/// RNG, logical clock, compute/stage accounting, and deadline handling.
///
/// The timing model is the monolith's, unchanged: the logical clock
/// starts when the gesture window closes, every piece of real compute is
/// measured with [`Instant`] and added to the clock, and message arrival
/// times (supplied by the driver) advance the clock monotonically.
#[derive(Debug)]
pub(crate) struct PartyCore {
    pub(crate) config: AgreementConfig,
    /// ristretto255, or the tiny test group under `use_tiny_group`. Each
    /// group's comb table is built once per process.
    pub(crate) group: Group,
    pub(crate) rng: StdRng,
    pub(crate) budgets: DeadlineBudgets,
    pub(crate) state: State,
    /// Logical clock (seconds since gesture start).
    pub(crate) clock: f64,
    /// Total compute seconds this party spent.
    pub(crate) compute: f64,
    /// This party's share of the per-stage timings; the driver sums both
    /// parties' shares into the outcome's [`AgreementStages`].
    pub(crate) stages: AgreementStages,
    /// Latest arrival time of any *budgeted* message (the deadline
    /// consumption diagnostic).
    pub(crate) deadline_consumed: f64,
    /// Causal event emitter for this party (disabled by default: one
    /// pointer test per transition, no allocation).
    pub(crate) events: EventScope,
}

impl PartyCore {
    pub(crate) fn new(
        config: &AgreementConfig,
        budgets: DeadlineBudgets,
        rng: StdRng,
    ) -> Result<PartyCore, AgreementError> {
        if config.key_len_bits == 0 {
            return Err(AgreementError::Config("zero key length".into()));
        }
        Ok(PartyCore {
            config: *config,
            group: if config.use_tiny_group { Group::Tiny } else { Group::Ristretto255 },
            rng,
            budgets,
            state: State::Init,
            clock: config.gesture_window,
            compute: 0.0,
            stages: AgreementStages {
                deadline_s: config.gesture_window + config.tau,
                ..AgreementStages::default()
            },
            deadline_consumed: 0.0,
            events: EventScope::disabled(),
        })
    }

    /// Move to `state`, emitting a causal state-transition event when an
    /// [`EventScope`] is bound. Every state assignment in the machines
    /// goes through here so timelines never miss a transition.
    pub(crate) fn transition(&mut self, state: State) {
        self.state = state;
        self.events.emit_state(state.label());
    }

    /// Registers a message arrival: records deadline consumption and
    /// enforces the budget for budgeted kinds, then advances the clock.
    pub(crate) fn arrive(
        &mut self,
        kind: MessageKind,
        arrival: f64,
    ) -> Result<(), AgreementError> {
        if let Some(budget) = self.budgets.budget(kind) {
            self.deadline_consumed = self.deadline_consumed.max(arrival);
            if arrival > budget {
                return Err(AgreementError::Timeout(kind));
            }
        }
        self.clock = self.clock.max(arrival);
        Ok(())
    }

    /// Books the real time elapsed since `t` as compute (advancing the
    /// logical clock) and returns it for stage attribution.
    pub(crate) fn spend(&mut self, t: Instant) -> f64 {
        let d = t.elapsed().as_secs_f64();
        self.clock += d;
        self.compute += d;
        d
    }

    /// Advances the logical clock by `seconds` without booking compute —
    /// the drivers bill retransmission backoff here, so a retried
    /// deadline-critical message departs (and therefore arrives) later
    /// and the `2 + τ` fence is charged for every recovery attempt.
    pub(crate) fn charge(&mut self, seconds: f64) {
        self.clock += seconds;
    }

    /// Validates the frame header and that `kind` is what the current
    /// state expects.
    pub(crate) fn expect(
        &self,
        frame: &Frame,
        expected: MessageKind,
    ) -> Result<(), AgreementError> {
        if frame.version != frame::WIRE_VERSION {
            return Err(AgreementError::Wire(
                FrameError::UnknownVersion(frame.version).to_string(),
            ));
        }
        if frame.kind != expected {
            return Err(AgreementError::Wire(format!(
                "unexpected {:?} in state {:?} (expected {:?})",
                frame.kind, self.state, expected
            )));
        }
        Ok(())
    }
}

/// Maps an OT-layer error into the agreement taxonomy.
pub(crate) fn ot_err(e: wavekey_crypto::ot::OtError) -> AgreementError {
    AgreementError::Ot(e.to_string())
}

/// Assembles a packed preliminary key from the `l_s` payloads the OT
/// receiver decrypted (`received`, one run per instance):
/// `push(key, i, y_i)` appends instance `i`'s two `l_b`-bit sequences.
///
/// # Errors
///
/// [`AgreementError::Ot`] when a payload holds fewer than `l_b` bits.
pub(crate) fn assemble_key(
    received: &[u8],
    l_s: usize,
    l_b: usize,
    mut push: impl FnMut(&mut PackedBits, usize, &[u8]),
) -> Result<PackedBits, AgreementError> {
    let len = received.len() / l_s;
    if len * 8 < l_b {
        return Err(ot_err(wavekey_crypto::ot::OtError::Malformed));
    }
    let mut key = PackedBits::with_capacity(2 * l_s * l_b);
    for i in 0..l_s {
        push(&mut key, i, &received[i * len..][..len]);
    }
    Ok(key)
}

/// Upper bound on duplicate-frame replays per machine: enough for every
/// message kind to be duplicated `max_retries` times, after which further
/// duplicates fall through to the (failing) dispatch path — a flood of
/// duplicates cannot keep a session alive forever.
pub fn replay_cap(retry: &crate::agreement::RetryPolicy) -> u32 {
    retry.max_retries.saturating_mul(MessageKind::ALL.len() as u32)
}
