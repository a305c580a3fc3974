//! Concurrent-session benchmark and equivalence check: runs N key
//! agreements interleaved through [`SessionManager`] (one wire message of
//! one session per scheduler step, round-robin) and the same N sessions
//! sequentially through `run_agreement`, then writes
//! `results/BENCH_concurrent.json`.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin concurrent_sessions [out_path]
//! ```
//!
//! This is the demonstration (and the CI gate's evidence) that the
//! sans-IO refactor made concurrency *free*: because each party's RNG
//! stream and logical clock live inside its machine, interleaving 48
//! sessions through one scheduler produces bit-identical keys and the
//! same success count as running them one at a time. The JSON records
//! both success counts, a `keys_bit_identical` flag, and wall-clock
//! throughput for each mode.

use rand::rngs::StdRng;
use std::time::Instant;
use wavekey_core::agreement::{run_agreement, AgreementConfig};
use wavekey_core::channel::PassiveChannel;
use wavekey_core::SessionManager;

const SESSIONS: u64 = 48;
const SEED_LEN: usize = 24;

// One gesture-channel bit error per session: inside the BCH budget,
// so reconciliation works for every session and success counts are
// deterministic.
fn seed_pair(base: u64) -> (Vec<bool>, Vec<bool>) {
    wavekey_bench::traffic::seed_pair(0xC0DE, base, SEED_LEN)
}

fn rngs(i: u64) -> (StdRng, StdRng) {
    wavekey_bench::traffic::rng_pair(0xA11CE, 0xB0B, i)
}

fn main() {
    let config =
        AgreementConfig { use_tiny_group: true, tau: 10.0, bch_t: 5, ..Default::default() };
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "results/BENCH_concurrent.json".into());

    // --- Interleaved: all sessions live at once, one frame per step.
    let mut adversary = PassiveChannel;
    let mut manager = SessionManager::new(8);
    let t0 = Instant::now();
    let mut ids = Vec::new();
    for i in 0..SESSIONS {
        let (s_m, s_r) = seed_pair(i);
        let (rng_m, rng_r) = rngs(i);
        ids.push(
            manager
                .spawn(&s_m, &s_r, &config, rng_m, rng_r, &mut adversary)
                .expect("spawn session"),
        );
    }
    let mut steps = 0u64;
    while manager.step(&mut adversary) {
        steps += 1;
    }
    let interleaved_s = t0.elapsed().as_secs_f64();
    let interleaved_success = manager.successes();

    // --- Sequential: identical seeds and RNG streams, one at a time.
    let t1 = Instant::now();
    let mut sequential = Vec::new();
    for i in 0..SESSIONS {
        let (s_m, s_r) = seed_pair(i);
        let (mut rng_m, mut rng_r) = rngs(i);
        sequential.push(run_agreement(&s_m, &s_r, &config, &mut rng_m, &mut rng_r, &mut adversary));
    }
    let sequential_s = t1.elapsed().as_secs_f64();
    let sequential_success = sequential.iter().filter(|r| r.is_ok()).count();

    // --- Equivalence: every interleaved key must equal its sequential twin
    // bit for bit, on both parties.
    let mut keys_bit_identical = true;
    for (i, id) in ids.iter().enumerate() {
        let managed = manager.outcome(*id).expect("completed");
        match (managed, &sequential[i]) {
            (Ok(m), Ok(s)) => {
                if m.agreement.key != s.key || m.server_key != s.key || m.agreement.key_bits != s.key_bits {
                    keys_bit_identical = false;
                }
            }
            (Err(_), Err(_)) => {}
            _ => keys_bit_identical = false,
        }
    }

    println!("sessions               {SESSIONS}");
    println!("scheduler steps        {steps}");
    println!("interleaved successes  {interleaved_success}");
    println!("sequential successes   {sequential_success}");
    println!("interleaved wall       {interleaved_s:.4} s");
    println!("sequential wall        {sequential_s:.4} s");
    println!("keys bit-identical     {keys_bit_identical}");

    let json = format!(
        "{{\n  \"sessions\": {SESSIONS},\n  \"scheduler_steps\": {steps},\n  \
         \"interleaved_success\": {interleaved_success},\n  \
         \"sequential_success\": {sequential_success},\n  \
         \"interleaved_wall_s\": {interleaved_s:.6},\n  \
         \"sequential_wall_s\": {sequential_s:.6},\n  \
         \"keys_bit_identical\": {keys_bit_identical}\n}}\n"
    );
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&out_path, json).expect("write BENCH_concurrent.json");
    println!("\nwrote {out_path}");
}
