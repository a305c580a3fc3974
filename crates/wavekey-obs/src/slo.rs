//! Declarative SLOs: error budgets, burn rates, machine-readable verdicts.
//!
//! An [`SloSpec`] states an objective the way an operator would: "p99
//! latency under 250 ms, with at least 95% success". Evaluation is pure
//! arithmetic over a sample set:
//!
//! * the **error budget** is the fraction of samples allowed over the
//!   threshold, `1 − objective` (for a p99 objective, 1% of samples);
//! * the **burn rate** is the observed violation fraction divided by the
//!   budget — `1.0` means the budget is exactly spent, `> 1.0` means the
//!   SLO is violated, and `budget_remaining = 1 − burn_rate` is what is
//!   left (negative when overspent);
//! * the verdict **passes** iff the burn rate is at most one *and* the
//!   success rate clears its floor.
//!
//! [`SloSpec::evaluate`] works over raw samples (exact — the load
//! generator keeps per-session latencies). Verdicts serialize through
//! [`SloVerdict::to_json`] into the load generator's report.

use crate::json::Json;
use crate::trace::percentile_sorted;

/// One declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Verdict name (e.g. `"enrol_p99"`).
    pub name: String,
    /// Objective percentile as a fraction (0.99 = "99% of samples must
    /// land at or under the threshold").
    pub objective: f64,
    /// Latency threshold, in the same unit as the samples (seconds
    /// throughout this workspace).
    pub threshold: f64,
    /// Success-rate floor in `[0, 1]`; 0.0 disables the floor.
    pub min_success_rate: f64,
}

impl SloSpec {
    /// A latency SLO with no success-rate floor.
    pub fn latency(name: &str, objective: f64, threshold: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            objective,
            threshold,
            min_success_rate: 0.0,
        }
    }

    /// Builder: add a success-rate floor.
    pub fn with_success_floor(mut self, floor: f64) -> SloSpec {
        self.min_success_rate = floor;
        self
    }

    /// Exact evaluation over raw samples (plus an externally computed
    /// success rate, since a latency sample set alone cannot know how many
    /// attempts never produced one).
    pub fn evaluate(&self, samples: &[f64], success_rate: f64) -> SloVerdict {
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let violations = samples.iter().filter(|v| **v > self.threshold).count() as u64;
        let count = samples.len() as u64;
        let budget = (1.0 - self.objective) * count as f64;
        let burn_rate = if count == 0 {
            0.0
        } else if budget > 0.0 {
            violations as f64 / budget
        } else if violations > 0 {
            f64::INFINITY
        } else {
            0.0
        };
        SloVerdict {
            name: self.name.clone(),
            samples: count,
            violations,
            budget,
            burn_rate,
            budget_remaining: 1.0 - burn_rate,
            observed: percentile_sorted(&sorted, self.objective),
            threshold: self.threshold,
            objective: self.objective,
            success_rate,
            min_success_rate: self.min_success_rate,
            pass: burn_rate <= 1.0 && success_rate >= self.min_success_rate,
        }
    }
}

/// The machine-readable outcome of evaluating one [`SloSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// Spec name.
    pub name: String,
    /// Samples evaluated.
    pub samples: u64,
    /// Samples over the threshold.
    pub violations: u64,
    /// Allowed violations, `(1 − objective) · samples` (fractional).
    pub budget: f64,
    /// `violations / budget`; ≤ 1.0 is within budget.
    pub burn_rate: f64,
    /// `1 − burn_rate`; negative when the budget is overspent.
    pub budget_remaining: f64,
    /// The observed value at the objective percentile.
    pub observed: f64,
    /// The spec's threshold, restated for self-contained reports.
    pub threshold: f64,
    /// The spec's objective, restated.
    pub objective: f64,
    /// The success rate the caller supplied.
    pub success_rate: f64,
    /// The spec's floor, restated.
    pub min_success_rate: f64,
    /// Whether the objective holds.
    pub pass: bool,
}

impl SloVerdict {
    /// JSON rendering (one entry of the `slo` array in `BENCH_load.json`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("samples", Json::Num(self.samples as f64)),
            ("violations", Json::Num(self.violations as f64)),
            ("budget", Json::Num(self.budget)),
            ("burn_rate", Json::Num(self.burn_rate)),
            ("budget_remaining", Json::Num(self.budget_remaining)),
            ("observed", Json::Num(self.observed)),
            ("threshold", Json::Num(self.threshold)),
            ("objective", Json::Num(self.objective)),
            ("success_rate", Json::Num(self.success_rate)),
            ("min_success_rate", Json::Num(self.min_success_rate)),
            ("pass", Json::Bool(self.pass)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 samples, 3 over a 0.1s threshold, p99 objective: the budget is
    /// exactly 1 sample, so burn rate is exactly 3.0 and the remaining
    /// budget exactly −2.0.
    #[test]
    fn burn_rate_fixture_overspent() {
        let mut samples = vec![0.05; 97];
        samples.extend([0.2, 0.3, 0.4]);
        let v = SloSpec::latency("p99", 0.99, 0.1).evaluate(&samples, 1.0);
        assert_eq!(v.samples, 100);
        assert_eq!(v.violations, 3);
        assert!((v.budget - 1.0).abs() < 1e-12);
        assert!((v.burn_rate - 3.0).abs() < 1e-12);
        assert!((v.budget_remaining - -2.0).abs() < 1e-12);
        assert!(!v.pass);
    }

    /// 200 samples, 1 violation, p99 objective: budget 2, burn rate 0.5,
    /// half the budget left.
    #[test]
    fn burn_rate_fixture_within_budget() {
        let mut samples = vec![0.05; 199];
        samples.push(0.2);
        let v = SloSpec::latency("p99", 0.99, 0.1).evaluate(&samples, 1.0);
        assert!((v.budget - 2.0).abs() < 1e-12);
        assert!((v.burn_rate - 0.5).abs() < 1e-12);
        assert!((v.budget_remaining - 0.5).abs() < 1e-12);
        assert!(v.pass);
    }

    /// Burn rate exactly 1.0 still passes: the budget is spent, not blown.
    #[test]
    fn burn_rate_exactly_one_passes() {
        let mut samples = vec![0.05; 95];
        samples.extend([0.2; 5]);
        let v = SloSpec::latency("p95", 0.95, 0.1).evaluate(&samples, 1.0);
        assert!((v.burn_rate - 1.0).abs() < 1e-12);
        assert!(v.pass);
    }

    #[test]
    fn success_floor_fails_independently_of_latency() {
        let samples = vec![0.01; 50];
        let spec = SloSpec::latency("auth", 0.99, 0.1).with_success_floor(0.95);
        assert!(spec.evaluate(&samples, 0.96).pass);
        assert!(!spec.evaluate(&samples, 0.90).pass);
    }

    #[test]
    fn observed_percentile_interpolates_exactly() {
        // Samples 1..=100: the p90 rank is 0.9·99 = 89.1, interpolating
        // between sorted[89]=90 and sorted[90]=91 → 90.1.
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let v = SloSpec::latency("p90", 0.90, 1000.0).evaluate(&samples, 1.0);
        assert!((v.observed - 90.1).abs() < 1e-9, "observed {}", v.observed);
        assert!(v.pass);
    }

    #[test]
    fn empty_and_degenerate_specs() {
        let v = SloSpec::latency("empty", 0.99, 0.1).evaluate(&[], 1.0);
        assert_eq!(v.samples, 0);
        assert_eq!(v.burn_rate, 0.0);
        assert!(v.pass);
        // objective = 1.0 → zero budget: any violation is an infinite burn.
        let v = SloSpec::latency("strict", 1.0, 0.1).evaluate(&[0.2], 1.0);
        assert!(v.burn_rate.is_infinite());
        assert!(!v.pass);
        let v = SloSpec::latency("strict", 1.0, 0.1).evaluate(&[0.05], 1.0);
        assert_eq!(v.burn_rate, 0.0);
        assert!(v.pass);
    }
}
