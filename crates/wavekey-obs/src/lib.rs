//! # wavekey-obs
//!
//! Dependency-free observability substrate for the WaveKey workspace:
//! structured spans, metrics, and a session flight recorder.
//!
//! The paper's evaluation (WaveKey, ICDCS 2024 — Tables I–III, Fig. 7) is
//! entirely about per-stage quantities: seed mismatch ratio ε, OT round
//! latency against the `2 + τ` arrival deadline, key-agreement success
//! rate. This crate gives the whole workspace one shared way to measure
//! them:
//!
//! * **Spans & events** — [`Obs`] is a cheaply clonable handle; `obs.span
//!   ("ot_round_a")` returns an RAII guard timed with the monotonic clock.
//!   A *disabled* handle (the default) is a `None` niche: instrumented
//!   code pays one pointer test, no clock read, no allocation.
//! * **Collectors** — the pluggable [`Collector`] trait with
//!   [`NullCollector`] (inert; collapses the handle to the disabled
//!   path), [`MemoryCollector`], a fan-out [`MultiCollector`], and the
//!   ring-buffer [`FlightRecorder`].
//! * **Metrics** — counters, gauges, and log-linear histograms
//!   (p50/p90/p99) in a per-handle [`Registry`], with Prometheus-style
//!   text and JSON exporters.
//! * **Session traces** — [`SessionTrace`] captures one key-establishment
//!   attempt end to end: per-stage timings (see [`stage`]), seed mismatch,
//!   deadline slack consumed, and outcome. [`TraceSet`] aggregates many
//!   traces into the `results/OBS_session.json` report.
//! * **Causal events** — [`event`] adds the bounded [`EventLog`] of
//!   per-session [`CausalEvent`] timelines (session id,
//!   sequence number, actor, state/frame context), emitted through cheap
//!   per-session [`EventScope`] handles and exported as deterministic
//!   JSONL.
//! * **Profiles** — [`profile`] aggregates the RAII spans by span path
//!   (counts, inclusive time), exported as flamegraph collapsed-stack
//!   text.
//! * **SLOs** — [`slo`] evaluates declarative objectives (percentile +
//!   threshold + success floor) into error budgets, burn rates, and the
//!   machine-readable verdicts of the `load_gen` gate.
//!
//! ```
//! use wavekey_obs::{Obs, SessionTrace, stage};
//!
//! let (obs, memory) = Obs::with_memory();
//! {
//!     let _guard = obs.span(stage::OT_ROUND_A); // recorded on drop
//! }
//! let mut trace = SessionTrace::new(1);
//! trace.outcome = "success".into();
//! trace.record_stage(stage::OT_ROUND_A, 0.043);
//! obs.session(&trace);
//! assert_eq!(memory.sessions().len(), 1);
//! assert!(obs.prometheus_text().contains("sessions_total 1"));
//! ```
//!
//! Everything is `std`-only by design: an observability layer must not
//! tax the crates it instruments.
//!
//! The crate follows the workspace's one-thread model: each session is
//! driven on one thread, and only `wavekey-par`'s workers run elsewhere,
//! which never touch a handle. So handles, scopes and collectors keep
//! their state in `Rc`, `Cell` and `RefCell`, take no lock, and are not
//! `Send` (see [`Obs`] and [`EventScope`]).

#![deny(missing_docs)]

pub mod collector;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod slo;
pub mod span;
pub mod trace;

pub use collector::{Collector, MemoryCollector, MultiCollector, NullCollector};
pub use event::{CausalEvent, EventLog, EventScope};
pub use flight::FlightRecorder;
pub use json::Json;
pub use metrics::{Bucket, Histogram, MetricSnapshot, Registry};
pub use profile::{PathStat, ProfileStore};
pub use slo::{SloSpec, SloVerdict};
pub use span::{EventRecord, Obs, SpanGuard, SpanRecord};
pub use trace::{stage, SessionTrace, StageStats, StageTiming, TraceSet};
