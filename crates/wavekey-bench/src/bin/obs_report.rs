//! The observability flight-record report: runs many full-protocol
//! key-establishment sessions with a live collector attached and writes
//! the aggregated per-stage latency / seed-mismatch / deadline report to
//! `results/OBS_session.json`, the Prometheus text exposition of every
//! derived metric to `results/OBS_metrics.prom`, the per-session causal
//! event timelines to `results/OBS_events.jsonl`, and the hierarchical
//! span profile (flamegraph collapsed-stack text) to
//! `results/OBS_profile.txt`.
//!
//! This is the end-to-end demonstration of the `wavekey-obs` pipeline:
//! `Session` records per-stage spans and a [`wavekey_obs::SessionTrace`]
//! per attempt, the `MemoryCollector` retains them, and
//! [`wavekey_obs::TraceSet::report_json`] turns the set into the stable
//! JSON document downstream dashboards consume.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin obs_report [sessions]
//! ```

use wavekey_bench::{experiment_config, print_row, print_sep, trained_models, write_results, Scale};
use wavekey_core::session::Session;
use wavekey_obs::{Obs, TraceSet};

fn main() {
    let sessions: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
        .max(32); // the report is meaningless on a handful of samples

    let models = trained_models(Scale::Small);
    let mut config = experiment_config();
    // Full ristretto255 protocol, but with deadline slack so the report
    // reflects compute latency rather than slow-machine timeouts.
    config.wavekey.tau = 10.0;

    let mut session = Session::new(config, models, 0x0b5e_55ed);
    let (obs, collector) = Obs::with_memory();
    session.set_obs(obs.clone());

    eprintln!("[obs_report] running {sessions} full-protocol sessions…");
    let mut successes = 0usize;
    for _ in 0..sessions {
        let _attempt = obs.span("establish_key");
        if session.establish_key().is_ok() {
            successes += 1;
        }
    }

    let mut set = TraceSet::new();
    for trace in collector.sessions() {
        set.push(trace);
    }
    assert_eq!(set.len(), sessions, "every attempt must produce a trace");

    // Human-readable summary of what lands in the JSON.
    println!("\nObservability report: {sessions} sessions, {successes} succeeded");
    let widths = [16usize, 6, 10, 10, 10, 10];
    print_row(
        &[
            "stage".into(),
            "count".into(),
            "mean ms".into(),
            "p50 ms".into(),
            "p90 ms".into(),
            "p99 ms".into(),
        ],
        &widths,
    );
    print_sep(&widths);
    for s in set.stage_stats() {
        print_row(
            &[
                s.name.clone(),
                s.count.to_string(),
                format!("{:.3}", s.mean_s * 1e3),
                format!("{:.3}", s.p50_s * 1e3),
                format!("{:.3}", s.p90_s * 1e3),
                format!("{:.3}", s.p99_s * 1e3),
            ],
            &widths,
        );
    }
    if let Some((count, mean, p50, p90, p99, max)) = set.field_stats(|t| t.seed_mismatch_ratio())
    {
        println!(
            "\nseed mismatch ratio ({count} sessions): mean {mean:.4}, p50 {p50:.4}, \
             p90 {p90:.4}, p99 {p99:.4}, max {max:.4}"
        );
    }
    if let Some((_, mean, _, _, p99, _)) = set.field_stats(|t| t.deadline_consumed_s) {
        let budget = set.traces().iter().find_map(|t| t.deadline_s).unwrap_or(f64::NAN);
        println!(
            "deadline budget {budget:.1} s: consumed mean {mean:.3} s, p99 {p99:.3} s"
        );
    }

    let report = set.report_json("full_protocol_ristretto255");
    write_results("results/OBS_session.json", &report.to_string_pretty());
    write_results("results/OBS_metrics.prom", &obs.prometheus_text());

    // Causal timelines: every machine state transition of every session,
    // exported deterministically (sessions by id, events by sequence).
    let events = collector.causal_events();
    println!("\ncausal events: {} across {sessions} sessions", events.len());
    write_results(
        "results/OBS_events.jsonl",
        &wavekey_obs::event::timelines_jsonl(&events),
    );

    // Hierarchical span profile in flamegraph collapsed-stack format
    // (`path;subpath weight`, weight = exclusive microseconds).
    write_results("results/OBS_profile.txt", &obs.profile_collapsed());
}
