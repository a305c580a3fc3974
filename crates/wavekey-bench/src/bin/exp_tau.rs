//! Reproduces **§VI-C-3**: determining the deadline slack τ.
//!
//! Paper protocol: generate the deadline-critical messages (`M_A`, `M_B`)
//! for many data records on every device and measure preparation time;
//! τ is set just above the worst case (the paper: < 100 ms → τ = 120 ms).
//!
//! Our "devices" are one machine, so the experiment measures this
//! implementation's `M_A`/`M_B` preparation over real seed batches and
//! reports the implied τ. Each run becomes a [`wavekey_obs::SessionTrace`]
//! carrying the preparation times as custom stages, so the percentiles and
//! the `results/OBS_tau.json` artifact come from the shared
//! [`wavekey_obs::TraceSet`] aggregation.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin exp_tau [runs]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use wavekey_bench::{trace_from_agreement, trained_models, write_results, Scale};
use wavekey_core::agreement::{run_agreement, AgreementConfig};
use wavekey_core::channel::PassiveChannel;
use wavekey_core::session::{Session, SessionConfig};
use wavekey_obs::TraceSet;

/// Stage names for the raw preparation timings (the canonical
/// `ot_round_a`/`ot_round_b` stages include the modeled channel delay;
/// τ calibration needs the pure compute part).
const MA_PREP: &str = "ma_prep";
const MB_PREP: &str = "mb_prep";

fn main() {
    let runs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let models = trained_models(Scale::Small);

    let mut session = Session::new(SessionConfig::default(), models, 0x7a0);
    let mut seed_pairs = Vec::new();
    while seed_pairs.len() < runs {
        if let Ok(pair) = session.derive_seeds() {
            seed_pairs.push(pair);
        }
    }

    let config = AgreementConfig { tau: 10.0, ..Default::default() };
    let mut set = TraceSet::new();
    for (i, (s_m, s_r)) in seed_pairs.iter().enumerate() {
        let mut rng_m = StdRng::seed_from_u64(i as u64);
        let mut rng_s = StdRng::seed_from_u64(1000 + i as u64);
        if let Ok(out) =
            run_agreement(s_m, s_r, &config, &mut rng_m, &mut rng_s, &mut PassiveChannel)
        {
            let mut trace = trace_from_agreement(i as u64 + 1, &out);
            trace.record_stage(MA_PREP, out.ma_prep);
            trace.record_stage(MB_PREP, out.mb_prep);
            set.push(trace);
        }
    }

    println!("\n§VI-C-3: deadline-critical message preparation times (ms)");
    println!("({} successful full-protocol runs, ristretto255 group)\n", set.len());
    for (label, stage) in [("M_A", MA_PREP), ("M_B", MB_PREP)] {
        let (_, mean, p50, _, _, max) =
            set.field_stats(|t| t.stage_seconds(stage)).expect("at least one run");
        let p95 = set.field_percentile(|t| t.stage_seconds(stage), 0.95).expect("p95");
        println!(
            "{label}: mean {:.1}, p50 {:.1}, p95 {:.1}, max {:.1}",
            mean * 1000.0,
            p50 * 1000.0,
            p95 * 1000.0,
            max * 1000.0,
        );
    }
    let worst_chain = set.field_percentile(|t| t.stage_seconds(MA_PREP), 0.95).unwrap_or(0.0)
        + set.field_percentile(|t| t.stage_seconds(MB_PREP), 0.95).unwrap_or(0.0);
    println!(
        "\nimplied τ (p95(M_A) + p95(M_B) + 2 ms channel, rounded up): ~{:.0} ms",
        (worst_chain * 1000.0 + 2.0).ceil()
    );
    println!("paper: all devices under 100 ms → τ = 120 ms");

    write_results("results/OBS_tau.json", &set.report_json("tau_calibration").to_string_pretty());
}
