//! Reproduces **Table III**: key-establishment time consumption for
//! different key lengths (128/168/192/256 bits for AES/3DES, 2048 bits
//! for RC4 — the paper uses only the lengths, not the ciphers).
//!
//! This experiment runs the *full* protocol, including the ristretto255
//! oblivious transfers, and reports the mean logical end-to-end latency:
//! the 2 s gesture plus both parties' measured compute time plus channel
//! delays. Each run is folded into a [`wavekey_obs::SessionTrace`] (via
//! the per-stage timings the agreement already measures), so the table and
//! the `results/OBS_table3.json` artifact come from one aggregation path.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin table3_latency [runs_per_length]
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavekey_bench::{
    print_row, print_sep, trace_from_agreement, trained_models, write_results, Scale,
};
use wavekey_core::agreement::{run_agreement, AgreementConfig};
use wavekey_core::channel::PassiveChannel;
use wavekey_core::session::{Session, SessionConfig};
use wavekey_obs::{Json, SessionTrace, TraceSet};

fn main() {
    let runs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let models = trained_models(Scale::Small);

    // Collect real seed pairs from simulated gestures first.
    let mut session = Session::new(SessionConfig::default(), models, 0x7ab1e3);
    let mut seed_pairs = Vec::new();
    while seed_pairs.len() < runs {
        if let Ok((s_m, s_r)) = session.derive_seeds() {
            seed_pairs.push((s_m, s_r));
        }
    }

    println!("\nTable III: time consumption for different key lengths");
    println!("({runs} full ristretto255 protocol runs per length)\n");
    let widths = [22usize, 8, 8, 8, 8, 8];
    print_row(
        &[
            "Key length (bit)".into(),
            "128".into(),
            "168".into(),
            "192".into(),
            "256".into(),
            "2048".into(),
        ],
        &widths,
    );
    print_sep(&widths);

    let mut cells = vec!["Time (ms)".to_string()];
    let mut proto_cells = vec!["Protocol (ms)".to_string()];
    let mut ok_cells = vec!["success".to_string()];
    let mut reports: Vec<(String, Json)> = Vec::new();
    for &l_k in &[128usize, 168, 192, 256, 2048] {
        let config = AgreementConfig {
            key_len_bits: l_k,
            // The deadline is an attack defense; latency measurement uses
            // a slack value so slow debug machines still finish.
            tau: 10.0,
            ..Default::default()
        };
        let mut set = TraceSet::new();
        let mut rng = StdRng::seed_from_u64(l_k as u64);
        for (i, (s_m, s_r)) in seed_pairs.iter().enumerate() {
            let mut rng_m = StdRng::seed_from_u64(rng.gen());
            let mut rng_s = StdRng::seed_from_u64(rng.gen());
            match run_agreement(s_m, s_r, &config, &mut rng_m, &mut rng_s, &mut PassiveChannel)
            {
                Ok(out) => set.push(trace_from_agreement(i as u64 + 1, &out)),
                Err(e) => {
                    let mut trace = SessionTrace::new(i as u64 + 1);
                    trace.outcome = e.label();
                    set.push(trace);
                }
            }
        }
        let count = set.traces().iter().filter(|t| t.is_success()).count();
        match set.field_stats(|t| t.elapsed_s) {
            Some((_, mean, _, _, _, _)) => {
                cells.push(format!("{:.0}", 1000.0 * mean));
                // Post-gesture protocol time: compute + channel, without
                // the fixed 2 s acquisition window that dominates
                // `elapsed`.
                proto_cells.push(format!("{:.0}", 1000.0 * (mean - config.gesture_window)));
                ok_cells.push(format!("{count}/{runs}"));
            }
            None => {
                cells.push("fail".into());
                proto_cells.push("fail".into());
                ok_cells.push("0".into());
            }
        }
        reports.push((format!("key_{l_k}"), set.report_json(&format!("table3_key_{l_k}"))));
    }
    print_row(&cells, &widths);
    print_row(&proto_cells, &widths);
    print_row(&ok_cells, &widths);
    println!("\npaper reference: 2345 2332 2347 2357 2362 ms (flat in key length)");

    let doc = Json::Obj(reports);
    write_results("results/OBS_table3.json", &doc.to_string_pretty());
}
