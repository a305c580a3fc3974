//! Shared infrastructure for the WaveKey experiment harness.
//!
//! Every table/figure of the paper's evaluation is regenerated by a
//! binary in `src/bin/`; all of them need trained autoencoders, which are
//! expensive to produce, so this crate trains once and caches the model
//! blob on disk (keyed by the training scale).

pub mod count_alloc;
pub mod fleet;
pub mod gate;
pub mod timing;
pub mod traffic;

use std::path::PathBuf;
use wavekey_core::agreement::AgreementOutcome;
use wavekey_core::dataset::DatasetConfig;
use wavekey_core::training::{train_autoencoders, TrainingConfig};
use wavekey_core::WaveKeyModels;
use wavekey_obs::SessionTrace;

/// Training scale for the cached models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced dataset (DESIGN.md D5); minutes to train, used by default.
    Small,
    /// The paper's full 14,400-sample dataset; slow.
    Paper,
}

impl Scale {
    /// The dataset configuration for this scale.
    pub fn dataset(self) -> DatasetConfig {
        match self {
            Scale::Small => DatasetConfig::small(),
            Scale::Paper => DatasetConfig::paper_scale(),
        }
    }

    /// The training configuration for this scale. `WAVEKEY_LAMBDA` and
    /// `WAVEKEY_EPOCHS` override the loss weight and epoch count for
    /// calibration experiments.
    pub fn training(self) -> TrainingConfig {
        let mut config = match self {
            Scale::Small => TrainingConfig { epochs: 40, ..Default::default() },
            Scale::Paper => TrainingConfig { epochs: 80, ..Default::default() },
        };
        if let Some(lambda) = std::env::var("WAVEKEY_LAMBDA").ok().and_then(|v| v.parse().ok())
        {
            config.lambda = lambda;
        }
        if let Some(epochs) = std::env::var("WAVEKEY_EPOCHS").ok().and_then(|v| v.parse().ok())
        {
            config.epochs = epochs;
        }
        config
    }

    fn cache_name(self) -> &'static str {
        match self {
            Scale::Small => "wavekey-models-small.bin",
            Scale::Paper => "wavekey-models-paper.bin",
        }
    }
}

/// Resolves the model cache path (under `target/`).
pub fn cache_path(scale: Scale) -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join(scale.cache_name())
}

/// Loads the cached trained models, training and caching them on first
/// use. Pass `WAVEKEY_RETRAIN=1` to force retraining.
pub fn trained_models(scale: Scale) -> WaveKeyModels {
    let path = cache_path(scale);
    let retrain = std::env::var("WAVEKEY_RETRAIN").is_ok_and(|v| v == "1");
    if !retrain {
        if let Ok(models) = WaveKeyModels::load(&path) {
            eprintln!("[wavekey] loaded cached models from {}", path.display());
            return models;
        }
    }
    eprintln!("[wavekey] training models ({scale:?} scale) — one-time, cached afterwards…");
    let start = std::time::Instant::now();
    let models = train_autoencoders(&scale.dataset(), &scale.training(), train_seed(scale))
        .expect("training configuration is valid");
    eprintln!("[wavekey] trained in {:.1} s", start.elapsed().as_secs_f64());
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    if let Err(e) = models.save(&path) {
        eprintln!("[wavekey] warning: could not cache models: {e}");
    }
    models
}

fn train_seed(scale: Scale) -> u64 {
    match scale {
        Scale::Small => 0x5eed_0001,
        Scale::Paper => 0x5eed_0002,
    }
}

/// The session configuration the experiments run with: the library
/// defaults, with the ECC strength optionally overridden by the
/// `WAVEKEY_BCH_T` environment variable (1–15). The experiment harness
/// reports both the paper-nominal `t = 5` (η ≈ 0.04) and the
/// procedure-derived `t = 15` (η ≈ 0.118) operating points this way.
pub fn experiment_config() -> wavekey_core::session::SessionConfig {
    let mut config = wavekey_core::session::SessionConfig::default();
    if let Ok(v) = std::env::var("WAVEKEY_BCH_T") {
        if let Ok(t) = v.parse::<usize>() {
            if (1..=15).contains(&t) {
                config.wavekey.bch_t = t;
            } else {
                eprintln!("[wavekey] ignoring out-of-range WAVEKEY_BCH_T={t}");
            }
        }
    }
    config
}

/// Builds a [`SessionTrace`] from a bare `run_agreement` outcome, so the
/// agreement-only experiments (Table III, τ calibration) report through
/// the same aggregation/export path as full sessions. The seed-derivation
/// stages are absent by construction; everything the agreement measured —
/// per-round timings, deadline accounting, preliminary mismatch — carries
/// over.
pub fn trace_from_agreement(session_id: u64, outcome: &AgreementOutcome) -> SessionTrace {
    let mut trace = SessionTrace::new(session_id);
    trace.outcome = "success".into();
    trace.key_bits = outcome.key_bits.len();
    trace.elapsed_s = Some(outcome.elapsed);
    trace.preliminary_mismatch_bits = Some(outcome.preliminary_mismatch_bits);
    trace.deadline_s = Some(outcome.stages.deadline_s);
    trace.deadline_consumed_s = Some(outcome.stages.deadline_consumed_s);
    for (name, seconds) in outcome.stages.timings() {
        trace.record_stage(name, seconds);
    }
    trace
}

/// Writes an experiment artifact (creating parent directories) and logs
/// the path, the way every `results/*` file in this harness is produced.
pub fn write_results(path: &str, contents: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("| {} |", row.join(" | "));
}

/// Prints a table separator.
pub fn print_sep(widths: &[usize]) {
    let row: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", row.join("-|-"));
}
