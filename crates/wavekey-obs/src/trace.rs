//! The session flight-record: a structured [`SessionTrace`] per
//! key-establishment attempt, plus [`TraceSet`] aggregation into the
//! per-stage p50/p90/p99 report consumed by `results/OBS_session.json`.
//!
//! Stage names are centralized in [`stage`] so instrumented crates, the
//! exporters, and DESIGN.md §8 all speak the same taxonomy.

use crate::json::Json;

/// Canonical stage names used across the instrumented pipeline.
///
/// The order here mirrors the protocol: sensing (gesture/IMU/RFID),
/// inference (encoder forward), quantization, then the agreement rounds of
/// WaveKey §V (OT rounds, preliminary keys, code-offset reconciliation,
/// HMAC key confirmation).
pub mod stage {
    /// Synthetic gesture generation (simulation stand-in for the wave).
    pub const GESTURE_SYNTH: &str = "gesture_synth";
    /// IMU sampling + mobile-side pipeline (§IV-B).
    pub const IMU_PIPELINE: &str = "imu_pipeline";
    /// RFID recording + server-side pipeline (§IV-B).
    pub const RFID_PIPELINE: &str = "rfid_pipeline";
    /// Autoencoder forward passes on both modalities (§IV-C).
    pub const ENCODER_FORWARD: &str = "encoder_forward";
    /// Equiprobable quantization + Gray coding into key-seeds (§IV-D).
    pub const QUANTIZATION: &str = "quantization";
    /// OT round A: both parties prepare and send `M_A` (§V-B).
    pub const OT_ROUND_A: &str = "ot_round_a";
    /// OT round B: both parties respond with `M_B` (§V-B).
    pub const OT_ROUND_B: &str = "ot_round_b";
    /// OT round E: both parties encrypt `M_E` (§V-B).
    pub const OT_ROUND_E: &str = "ot_round_e";
    /// Preliminary key assembly from decrypted OT payloads (§V-B).
    pub const PRELIM_KEY: &str = "prelim_key";
    /// BCH code-offset reconciliation, both directions (§V-C).
    pub const ECC_RECONCILE: &str = "ecc_reconcile";
    /// HMAC key-confirmation exchange (§V-C).
    pub const HMAC_CONFIRM: &str = "hmac_confirm";
    /// All stages in pipeline order (used for stable report ordering).
    pub const ALL: &[&str] = &[
        GESTURE_SYNTH,
        IMU_PIPELINE,
        RFID_PIPELINE,
        ENCODER_FORWARD,
        QUANTIZATION,
        OT_ROUND_A,
        OT_ROUND_B,
        OT_ROUND_E,
        PRELIM_KEY,
        ECC_RECONCILE,
        HMAC_CONFIRM,
    ];
}

/// One timed stage inside a session.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name, normally one of [`stage`]'s constants.
    pub name: String,
    /// Wall-clock compute time spent in the stage, in seconds.
    pub seconds: f64,
}

/// Structured record of one key-establishment session.
///
/// Every field that depends on reaching a protocol phase is optional: a
/// session that times out in OT round A has no reconciliation timing and no
/// final key, but its partial trace is still recorded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionTrace {
    /// Monotonic id (unique per process, assigned by the caller).
    pub session_id: u64,
    /// `"success"`, or a short failure label (e.g. `"timeout_ota"`,
    /// `"confirmation_failed"`).
    pub outcome: String,
    /// Final key length in bits (0 if the session failed).
    pub key_bits: usize,
    /// Key-seed length in bits (`l_s` per party, §IV-D).
    pub seed_len: usize,
    /// Hamming distance between the two parties' key-seeds, when both
    /// seeds were derived.
    pub seed_mismatch_bits: Option<usize>,
    /// Bit mismatches between the preliminary keys entering
    /// reconciliation (§V-C), when the protocol got that far.
    pub preliminary_mismatch_bits: Option<usize>,
    /// Preliminary key length in bits, for turning the above into a ratio.
    pub preliminary_len_bits: Option<usize>,
    /// The `2 + τ` arrival deadline both parties enforce, in seconds.
    pub deadline_s: Option<f64>,
    /// How much of the deadline budget the slowest checked arrival
    /// consumed, in seconds (deadline minus remaining slack).
    pub deadline_consumed_s: Option<f64>,
    /// End-to-end logical protocol time (includes modeled channel delays).
    pub elapsed_s: Option<f64>,
    /// Per-stage compute timings, in pipeline order as recorded.
    pub stages: Vec<StageTiming>,
}

impl SessionTrace {
    /// A fresh trace for `session_id` with no stages recorded.
    pub fn new(session_id: u64) -> SessionTrace {
        SessionTrace { session_id, ..SessionTrace::default() }
    }

    /// Append a stage timing (accumulates if the stage repeats).
    pub fn record_stage(&mut self, name: &str, seconds: f64) {
        if let Some(existing) = self.stages.iter_mut().find(|s| s.name == name) {
            existing.seconds += seconds;
        } else {
            self.stages.push(StageTiming { name: name.to_string(), seconds });
        }
    }

    /// Total seconds recorded for `name`, if present.
    pub fn stage_seconds(&self, name: &str) -> Option<f64> {
        self.stages.iter().find(|s| s.name == name).map(|s| s.seconds)
    }

    /// Seed mismatch ratio (mismatch bits / seed bits), when known.
    ///
    /// The paper reports this as ε, the fraction the OT layer and BCH
    /// reconciliation must absorb (Fig. 7 keys off it).
    pub fn seed_mismatch_ratio(&self) -> Option<f64> {
        match (self.seed_mismatch_bits, self.seed_len) {
            (Some(bits), len) if len > 0 => Some(bits as f64 / len as f64),
            _ => None,
        }
    }

    /// Whether the session established a confirmed key.
    pub fn is_success(&self) -> bool {
        self.outcome == "success"
    }

    /// Serialize to a JSON object (stable field names, `null` for a field
    /// the session never reached; used by `results/OBS_session.json`).
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        let opt_count = |v: Option<usize>| v.map(|n| Json::Num(n as f64)).unwrap_or(Json::Null);
        Json::obj(vec![
            ("session_id", Json::Num(self.session_id as f64)),
            ("outcome", Json::Str(self.outcome.clone())),
            ("key_bits", Json::Num(self.key_bits as f64)),
            ("seed_len", Json::Num(self.seed_len as f64)),
            ("seed_mismatch_bits", opt_count(self.seed_mismatch_bits)),
            ("preliminary_mismatch_bits", opt_count(self.preliminary_mismatch_bits)),
            ("preliminary_len_bits", opt_count(self.preliminary_len_bits)),
            ("deadline_s", opt_num(self.deadline_s)),
            ("deadline_consumed_s", opt_num(self.deadline_consumed_s)),
            ("elapsed_s", opt_num(self.elapsed_s)),
            (
                "stages",
                Json::Obj(
                    self.stages
                        .iter()
                        .map(|s| (s.name.clone(), Json::Num(s.seconds)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Aggregate statistics for one stage across a [`TraceSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name.
    pub name: String,
    /// Number of sessions that recorded the stage.
    pub count: usize,
    /// Mean seconds.
    pub mean_s: f64,
    /// Median seconds (exact, from sorted samples).
    pub p50_s: f64,
    /// 90th percentile seconds.
    pub p90_s: f64,
    /// 99th percentile seconds.
    pub p99_s: f64,
    /// Maximum seconds.
    pub max_s: f64,
}

/// A collection of session traces with aggregate reporting.
#[derive(Debug, Clone, Default)]
pub struct TraceSet {
    traces: Vec<SessionTrace>,
}

/// Exact percentile over a sorted sample slice (nearest-rank with linear
/// interpolation, matching `wavekey_math::stats::percentile` semantics).
/// Shared with the SLO engine ([`crate::slo`]), which reports the
/// observed value at each objective percentile.
pub(crate) fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

impl TraceSet {
    /// An empty set.
    pub fn new() -> TraceSet {
        TraceSet::default()
    }

    /// Add one trace.
    pub fn push(&mut self, trace: SessionTrace) {
        self.traces.push(trace);
    }

    /// All traces, in insertion order.
    pub fn traces(&self) -> &[SessionTrace] {
        &self.traces
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Fraction of sessions whose outcome is `"success"`.
    pub fn success_rate(&self) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        self.traces.iter().filter(|t| t.is_success()).count() as f64 / self.traces.len() as f64
    }

    /// Per-stage timing statistics. Stages in [`stage::ALL`] come first in
    /// pipeline order; any custom stages follow in first-seen order.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        let mut order: Vec<String> = stage::ALL.iter().map(|s| s.to_string()).collect();
        for t in &self.traces {
            for s in &t.stages {
                if !order.contains(&s.name) {
                    order.push(s.name.clone());
                }
            }
        }
        let mut out = Vec::new();
        for name in order {
            let mut samples: Vec<f64> =
                self.traces.iter().filter_map(|t| t.stage_seconds(&name)).collect();
            if samples.is_empty() {
                continue;
            }
            samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN stage timing"));
            let count = samples.len();
            let mean = samples.iter().sum::<f64>() / count as f64;
            out.push(StageStats {
                name,
                count,
                mean_s: mean,
                p50_s: percentile_sorted(&samples, 0.50),
                p90_s: percentile_sorted(&samples, 0.90),
                p99_s: percentile_sorted(&samples, 0.99),
                max_s: samples[count - 1],
            });
        }
        out
    }

    /// Statistics over a numeric field extracted from each trace
    /// (`None` entries are skipped): `(count, mean, p50, p90, p99, max)`.
    pub fn field_stats<F: Fn(&SessionTrace) -> Option<f64>>(
        &self,
        extract: F,
    ) -> Option<(usize, f64, f64, f64, f64, f64)> {
        let mut samples: Vec<f64> = self.traces.iter().filter_map(extract).collect();
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN field"));
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        Some((
            count,
            mean,
            percentile_sorted(&samples, 0.50),
            percentile_sorted(&samples, 0.90),
            percentile_sorted(&samples, 0.99),
            samples[count - 1],
        ))
    }

    /// An arbitrary percentile (`q` in `[0, 1]`) of a numeric field
    /// extracted from each trace, or `None` when no trace has the field.
    /// Complements [`TraceSet::field_stats`] for quantiles outside the
    /// standard p50/p90/p99 set (e.g. the τ-calibration's p95).
    pub fn field_percentile<F: Fn(&SessionTrace) -> Option<f64>>(
        &self,
        extract: F,
        q: f64,
    ) -> Option<f64> {
        let mut samples: Vec<f64> = self.traces.iter().filter_map(extract).collect();
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN field"));
        Some(percentile_sorted(&samples, q))
    }

    /// Build the `results/OBS_session.json` document: session counts,
    /// seed-mismatch statistics, deadline accounting, per-stage
    /// p50/p90/p99, and the raw per-session traces.
    pub fn report_json(&self, label: &str) -> Json {
        let stage_stats = self.stage_stats();
        let stages = Json::Arr(
            stage_stats
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.clone())),
                        ("count", Json::Num(s.count as f64)),
                        ("mean_ms", Json::Num(s.mean_s * 1e3)),
                        ("p50_ms", Json::Num(s.p50_s * 1e3)),
                        ("p90_ms", Json::Num(s.p90_s * 1e3)),
                        ("p99_ms", Json::Num(s.p99_s * 1e3)),
                        ("max_ms", Json::Num(s.max_s * 1e3)),
                    ])
                })
                .collect(),
        );
        let mismatch = match self.field_stats(|t| t.seed_mismatch_ratio()) {
            Some((count, mean, p50, p90, p99, max)) => Json::obj(vec![
                ("count", Json::Num(count as f64)),
                ("mean_ratio", Json::Num(mean)),
                ("p50_ratio", Json::Num(p50)),
                ("p90_ratio", Json::Num(p90)),
                ("p99_ratio", Json::Num(p99)),
                ("max_ratio", Json::Num(max)),
            ]),
            None => Json::Null,
        };
        let deadline = match self.field_stats(|t| t.deadline_consumed_s) {
            Some((count, mean, p50, p90, p99, max)) => Json::obj(vec![
                ("count", Json::Num(count as f64)),
                (
                    "budget_s",
                    self.traces
                        .iter()
                        .find_map(|t| t.deadline_s)
                        .map(Json::Num)
                        .unwrap_or(Json::Null),
                ),
                ("consumed_mean_s", Json::Num(mean)),
                ("consumed_p50_s", Json::Num(p50)),
                ("consumed_p90_s", Json::Num(p90)),
                ("consumed_p99_s", Json::Num(p99)),
                ("consumed_max_s", Json::Num(max)),
            ]),
            None => Json::Null,
        };
        Json::obj(vec![
            ("label", Json::Str(label.to_string())),
            ("sessions", Json::Num(self.traces.len() as f64)),
            (
                "successes",
                Json::Num(self.traces.iter().filter(|t| t.is_success()).count() as f64),
            ),
            ("success_rate", Json::Num(self.success_rate())),
            ("seed_mismatch", mismatch),
            ("deadline", deadline),
            ("stages", stages),
            ("traces", Json::Arr(self.traces.iter().map(SessionTrace::to_json).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(id: u64, base: f64) -> SessionTrace {
        let mut t = SessionTrace::new(id);
        t.outcome = "success".into();
        t.key_bits = 256;
        t.seed_len = 48;
        t.seed_mismatch_bits = Some(3);
        t.deadline_s = Some(2.12);
        t.deadline_consumed_s = Some(0.1 * base);
        t.elapsed_s = Some(base);
        t.record_stage(stage::OT_ROUND_A, 0.040 * base);
        t.record_stage(stage::OT_ROUND_B, 0.030 * base);
        t.record_stage(stage::ECC_RECONCILE, 0.001 * base);
        t
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut t = sample_trace(7, 1.0);
        t.preliminary_mismatch_bits = Some(5);
        t.preliminary_len_bits = Some(256);
        let json = t.to_json();
        let num = |k: &str| json.get(k).and_then(Json::as_f64);
        assert_eq!(num("session_id"), Some(7.0));
        assert_eq!(json.get("outcome").and_then(Json::as_str), Some("success"));
        assert_eq!(num("key_bits"), Some(256.0));
        assert_eq!(num("seed_len"), Some(48.0));
        assert_eq!(num("seed_mismatch_bits"), Some(3.0));
        assert_eq!(num("preliminary_mismatch_bits"), Some(5.0));
        assert_eq!(num("preliminary_len_bits"), Some(256.0));
        assert_eq!(num("deadline_s"), Some(2.12));
        assert_eq!(num("deadline_consumed_s"), Some(0.1));
        assert_eq!(num("elapsed_s"), Some(1.0));
        // Stages keep their recording order and exact seconds.
        assert_eq!(
            json.get("stages"),
            Some(&Json::Obj(vec![
                (stage::OT_ROUND_A.into(), Json::Num(0.040)),
                (stage::OT_ROUND_B.into(), Json::Num(0.030)),
                (stage::ECC_RECONCILE.into(), Json::Num(0.001)),
            ]))
        );
        // And the text form parses back to the same document.
        let reparsed = crate::json::Json::parse(&json.to_string_compact()).expect("parse");
        assert_eq!(reparsed, json);
    }

    #[test]
    fn failed_sessions_round_trip_with_missing_fields() {
        let mut t = SessionTrace::new(9);
        t.outcome = "timeout_ot_a".into();
        t.seed_len = 48;
        t.record_stage(stage::OT_ROUND_A, 0.05);
        assert!(!t.is_success());
        assert_eq!(t.seed_mismatch_ratio(), None);
        // Every field is written; the ones the session never reached are
        // `null`, so the report keeps one shape for every trace.
        let json = t.to_json();
        for key in [
            "seed_mismatch_bits",
            "preliminary_mismatch_bits",
            "preliminary_len_bits",
            "deadline_s",
            "deadline_consumed_s",
            "elapsed_s",
        ] {
            assert_eq!(json.get(key), Some(&Json::Null), "{key}");
        }
        assert_eq!(json.get("key_bits").and_then(Json::as_f64), Some(0.0));
        let text = json.to_string_compact();
        assert!(text.contains(r#""seed_mismatch_bits":null"#), "{text}");
        assert_eq!(crate::json::Json::parse(&text).expect("parse"), json);
    }

    #[test]
    fn record_stage_accumulates_repeats() {
        let mut t = SessionTrace::new(1);
        t.record_stage(stage::ECC_RECONCILE, 0.5);
        t.record_stage(stage::ECC_RECONCILE, 0.25);
        assert_eq!(t.stage_seconds(stage::ECC_RECONCILE), Some(0.75));
        assert_eq!(t.stages.len(), 1);
    }

    #[test]
    fn trace_set_aggregates_percentiles_and_success_rate() {
        let mut set = TraceSet::new();
        for i in 0..100 {
            let mut t = sample_trace(i, 1.0 + i as f64 / 100.0);
            if i >= 90 {
                t.outcome = "timeout_ot_b".into();
            }
            set.push(t);
        }
        assert!((set.success_rate() - 0.9).abs() < 1e-12);
        let stats = set.stage_stats();
        let ot_a = stats.iter().find(|s| s.name == stage::OT_ROUND_A).expect("ot_a");
        assert_eq!(ot_a.count, 100);
        // base spans 1.00..1.99 → ot_a spans 40.0..79.6 ms
        assert!(ot_a.p50_s > 0.055 && ot_a.p50_s < 0.065, "p50 {}", ot_a.p50_s);
        assert!(ot_a.p99_s > ot_a.p90_s && ot_a.p90_s > ot_a.p50_s);
        assert!(ot_a.max_s <= 0.0796 + 1e-12);
        // Stage ordering follows the pipeline taxonomy.
        let names: Vec<_> = stats.iter().map(|s| s.name.as_str()).collect();
        let ia = names.iter().position(|n| *n == stage::OT_ROUND_A).expect("a");
        let ib = names.iter().position(|n| *n == stage::ECC_RECONCILE).expect("ecc");
        assert!(ia < ib);

        // field_percentile agrees with field_stats at the shared quantiles
        // and interpolates in between.
        let (_, _, p50, p90, _, max) =
            set.field_stats(|t| t.elapsed_s).expect("elapsed samples");
        assert_eq!(set.field_percentile(|t| t.elapsed_s, 0.50), Some(p50));
        assert_eq!(set.field_percentile(|t| t.elapsed_s, 0.90), Some(p90));
        let p95 = set.field_percentile(|t| t.elapsed_s, 0.95).expect("p95");
        assert!(p95 > p90 && p95 < max, "p95 {p95} not between p90 {p90} and max {max}");
        assert_eq!(set.field_percentile(|t| t.stage_seconds("no_such_stage"), 0.5), None);

        let report = set.report_json("unit");
        assert_eq!(report.get("sessions").and_then(Json::as_f64), Some(100.0));
        let mismatch = report.get("seed_mismatch").expect("mismatch");
        let ratio = mismatch.get("mean_ratio").and_then(Json::as_f64).expect("ratio");
        assert!((ratio - 3.0 / 48.0).abs() < 1e-12);
        assert_eq!(report.get("traces").and_then(Json::as_arr).map(<[Json]>::len), Some(100));
    }

    #[test]
    fn percentile_interpolation_pins_exact_values() {
        // Rank = q · (n − 1), linearly interpolated between neighbours.
        let sorted: Vec<f64> = (1..=5).map(|v| v as f64).collect();
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 3.0);
        // q=0.6 → rank 2.4 → 3 + 0.4·(4−3) = 3.4.
        assert!((percentile_sorted(&sorted, 0.6) - 3.4).abs() < 1e-12);
        // q=0.9 over 1..=100 → rank 89.1 → 90.1.
        let big: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert!((percentile_sorted(&big, 0.9) - 90.1).abs() < 1e-9);
        // Degenerates.
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        // Out-of-range q clamps.
        assert_eq!(percentile_sorted(&sorted, -1.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 2.0), 5.0);
    }
}
