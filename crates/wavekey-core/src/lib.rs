//! The WaveKey scheme: cross-modal key establishment between a mobile
//! device and an RFID server.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates:
//!
//! * [`config`] — every hyper-parameter of the scheme in one place
//!   (`l_f = 12`, `N_b = 9`, `τ = 120 ms`, `λ = 0.4`, …).
//! * [`model`] — the IMU-En / RF-En / De architectures of Fig. 5 and the
//!   tensor conversions from the processed sensor matrices.
//! * [`dataset`] — §IV-E-1 dataset generation: volunteers × devices ×
//!   gestures × overlapping two-second windows.
//! * [`training`] — joint training with the Eq. (3) loss and the
//!   variance-based `l_f` pruning study of §VI-C-1.
//! * [`seed`] — key-seed generation (§IV-C): encoder → equiprobable
//!   quantization → Gray coding.
//! * [`quantize`] — int8-encoder calibration gated on key-seed
//!   equivalence: quantized encoders are only used when they produce
//!   bit-identical seeds on the reference corpus, else the session
//!   falls back to f32 per model.
//! * [`agreement`] — the bidirectional-OT key agreement of Fig. 4 with
//!   the `2 + τ` arrival deadline, code-offset reconciliation, and HMAC
//!   confirmation.
//! * [`proto`] — sans-IO protocol state machines ([`MobileAgreement`],
//!   [`ServerAgreement`]) over a framed, versioned wire format; the
//!   [`agreement`] entry points are a lockstep driver over them.
//! * [`channel`] — the wire-frame channel with pluggable adversaries
//!   (eavesdropper, MitM, delayer, dropper, version spoofer).
//! * [`fault`] — seeded deterministic fault injection ([`FaultPlan`]):
//!   drop / corrupt / duplicate / reorder / truncate / delay schedules
//!   that compose with the adversary suite and drive the recovery layer
//!   (retransmission, duplicate idempotency, re-gesture fallback).
//! * [`session`] — end-to-end key establishment: gesture → both sensing
//!   pipelines → seeds → agreement.
//! * [`service`] — the multi-tenant backend of the paper's application
//!   contexts: ticket issuing, Gen2 discovery, per-ticket key binding,
//!   rotation/re-enrolment, request authentication — durably persisted
//!   through [`store`] (`wavekey-store`'s write-ahead journal).
//! * [`attack`] — the §V / §VI-E attack suite: random guessing (Eq. (4)),
//!   gesture mimicking, RFID signal spoofing, camera-aided data recovery
//!   (remote and in-situ), and MitM manipulation.
//! * [`bits`] — bit-vector packing helpers shared by the protocol.

pub mod agreement;
pub mod attack;
pub mod bits;
pub mod channel;
pub mod config;
pub mod dataset;
pub mod fault;
pub mod model;
pub mod proto;
pub mod quantize;
pub mod seed;
pub mod service;
pub mod session;
pub mod training;

pub use agreement::{
    run_agreement, AgreementConfig, AgreementError, AgreementOutcome, AgreementStages, RetryPolicy,
};
pub use channel::{Adversary, Direction, MessageKind, PassiveChannel};
pub use config::WaveKeyConfig;
pub use fault::{FaultKind, FaultPlan, FaultProfile, ScheduledFault};
pub use model::WaveKeyModels;
pub use proto::Link;
pub use proto::{Decoder, Frame, FrameError, MobileAgreement, ServerAgreement};
pub use quantize::{calibrate, QuantizeOutcome};
pub use seed::SeedGenerator;
pub use service::{AccessService, DegradePolicy, ServiceTicket, DEFAULT_TENANT};
pub use session::{ConfigGuard, Session, SessionConfig, SessionOutcome};

/// The durable state layer under [`AccessService`] (re-exported so the
/// facade and integration tests reach it as `wavekey_core::store`).
pub use wavekey_store as store;

/// Unified error type of the WaveKey scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The mobile-side pipeline failed.
    Imu(wavekey_imu::pipeline::PipelineError),
    /// The server-side pipeline failed.
    Rfid(wavekey_rfid::pipeline::RfidPipelineError),
    /// The key agreement failed.
    Agreement(AgreementError),
    /// Model training failed to converge or was misconfigured.
    Training(String),
    /// Invalid configuration.
    Config(String),
    /// The durable store failed (media error, quota, rate limit, …).
    Store(wavekey_store::StoreError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Imu(e) => write!(f, "imu pipeline: {e}"),
            Error::Rfid(e) => write!(f, "rfid pipeline: {e}"),
            Error::Agreement(e) => write!(f, "key agreement: {e}"),
            Error::Training(msg) => write!(f, "training: {msg}"),
            Error::Config(msg) => write!(f, "config: {msg}"),
            Error::Store(e) => write!(f, "durable store: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<wavekey_imu::pipeline::PipelineError> for Error {
    fn from(e: wavekey_imu::pipeline::PipelineError) -> Error {
        Error::Imu(e)
    }
}

impl From<wavekey_rfid::pipeline::RfidPipelineError> for Error {
    fn from(e: wavekey_rfid::pipeline::RfidPipelineError) -> Error {
        Error::Rfid(e)
    }
}

impl From<AgreementError> for Error {
    fn from(e: AgreementError) -> Error {
        Error::Agreement(e)
    }
}

impl From<wavekey_store::StoreError> for Error {
    fn from(e: wavekey_store::StoreError) -> Error {
        Error::Store(e)
    }
}
