//! Sans-IO protocol state machines for the §IV-D key agreement.
//!
//! The agreement logic lives in one state machine, [`Agreement`], run in
//! two roles — [`MobileAgreement`] and [`ServerAgreement`] — that never
//! touches a socket, a clock source, or the other party: it consumes
//! framed wire messages ([`frame::Frame`]) plus a caller-supplied
//! logical arrival time and produces frames to send. All IO, scheduling,
//! and channel modelling stays with the driver:
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
//! (`Init → OtRound(i) → Reconcile → Confirm → Done/Failed`), and its
//! role fences one arrival at the paper's `2 + τ`: `M_{A,R}` at the
//! mobile, `M_{B,M}` at the server.

pub mod driver;
pub mod frame;
pub mod link;
pub mod machine;

pub use frame::{Decoder, Frame, FrameError};
pub use link::Link;
pub use machine::{Agreement, Mobile, MobileAgreement, Role, Server, ServerAgreement};

use crate::channel::MessageKind;

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

/// Upper bound on duplicate-frame replays per machine: enough for every
/// message kind to be duplicated `max_retries` times, after which further
/// duplicates fall through to the (failing) dispatch path — a flood of
/// duplicates cannot keep a session alive forever.
pub fn replay_cap(retry: &crate::agreement::RetryPolicy) -> u32 {
    retry.max_retries.saturating_mul(MessageKind::ALL.len() as u32)
}
