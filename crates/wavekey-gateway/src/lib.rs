//! Async event-loop networking for the WaveKey protocol.
//!
//! `wavekey-core`'s agreement machines are sans-IO: they consume frames
//! and emit frames, and never touch a socket. This crate supplies the
//! missing IO half as a dependency-free async stack:
//!
//! - [`exec`] — a deterministic single-threaded executor with logical
//!   time: tasks run in spawn order, wake-ups dedupe, and timers fire
//!   only when the whole system quiesces, so "idle" can never be
//!   confused with "scheduled later".
//! - [`stream`] — simulated non-blocking byte streams (bounded duplex
//!   pipes with readiness wakers) plus seeded stream-level fault
//!   injection: split reads, stalled writes, truncate-and-close.
//! - [`table`] — the session table tracking every in-flight
//!   connection and its terminal outcome.
//! - [`gateway`] — the [`Gateway`] itself: accept loop,
//!   per-connection incremental framing over the
//!   streaming [`wavekey_core::proto::Decoder`], bounded write queues
//!   with backpressure eviction, idle eviction, graceful shutdown, and
//!   per-connection causal timelines.
//!
//! Everything runs on the executor's one thread: the gateway is
//! `!Send`, and its state is shared through `Rc`, `RefCell` and `Cell`.
//! Threads come only from `wavekey-par`, inside a session's group
//! arithmetic and neural-network layers.
//!
//! Because arrival chunking never reaches the machines — only whole
//! frames do — a gateway fleet's keys are bit-identical to the lockstep
//! driver's for the same seeds and RNGs. The `gateway_soak` bench in
//! `wavekey-bench` gates that equivalence at 100k concurrent sessions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod gateway;
pub mod stream;
pub mod table;

pub use exec::{race, yield_now, Either, Executor, Handle};
pub use gateway::{drive_mobile, server_rng, session_seed_fn, EnrollmentSink, Gateway, GatewayConfig};
pub use stream::{SimNet, SimStream, StreamError, StreamFaults};
pub use table::{EvictReason, SessionOutcome, SessionTable};
