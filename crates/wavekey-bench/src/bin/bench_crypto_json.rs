//! Machine-readable crypto micro-benchmarks and the observability
//! overhead gate: times the exponentiation kernels, SHA-256 and HMAC at
//! the OT's and the access verify's input sizes, the 48-instance OT
//! rounds and the full MODP-1024 agreement, then writes
//! `results/BENCH_crypto.json`, the perf trajectory and the gate's
//! baseline.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin bench_crypto_json [out_path]
//! ```
//!
//! Each row is warmed up once, then timed over enough iterations to fill
//! a 0.25 s window ([`wavekey_bench::timing::time_window`];
//! `WAVEKEY_THREADS` caps the parallelism as everywhere else). The JSON
//! schema is a flat list:
//! `{ "op": str, "mean_ns": float, "iters": int, "throughput_per_s": float }`,
//! with `*_x48` ops reporting per-exponentiation cost (total / 48), then
//! one record naming the 16-limb Montgomery kernel the run used
//! (`{"op": "mont_kernel_1024", "kernel": "adx" | "portable"}`) and one
//! naming the kernel behind `DhGroup::pow_many` and the comb walk of
//! `DhGroup::pow_g_many`
//! (`{"op": "pow_many_kernel_1024", "kernel": "ifma8" | "scalar"}`),
//! one naming the SHA-256 compression kernel behind the two hash
//! rows (`{"op": "sha256_kernel", "kernel": "shani" | "portable"}`), and
//! the overhead gate's record (`{"op": "agreement_over_control",
//! "median_ratio": float, "rounds": int, "threads": 1}`).
//!
//! On `ifma8` hosts the single-call `modp1024_pow_g_fixed_base` and
//! `modp1024_inv_pow_g` rows time a lane group of eight padded around
//! one exponent; `modp1024_pow_g_x48` is the per-walk cost of the
//! 48-exponent calls the OT makes.
//!
//! **The overhead gate.** The full agreement, observability compiled in
//! with no collector attached, must stay within 1 % of the baseline.
//! Host speed drifts by far more than 1 % between runs, so the agreement
//! is timed against a control op, `ot_batch48_three_rounds`: its hot
//! path has no observability attach point (the OT calls take no `Obs`
//! handle; the machines time the rounds on their logical clocks) and it
//! runs the same kernels for about half the time. The two alternate
//! call by call on one thread ([`wavekey_bench::timing::alternate`]),
//! and the record holds the median of the per-round agreement/control
//! ratios with that width. A run that writes anywhere but
//! `results/BENCH_crypto.json` compares its ratio with that file's and
//! exits non-zero when it is more than 1 % higher; the gate is
//! one-sided, a faster agreement passes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavekey_bench::gate::{self, Check};
use wavekey_bench::timing::{alternate, median_ratio, time_window};
use wavekey_core::agreement::{run_agreement, AgreementConfig};
use wavekey_core::channel::PassiveChannel;
use wavekey_crypto::bigint::{mont_kernel_1024, pow_many_kernel_1024, Ubig};
use wavekey_crypto::group::DhGroup;
use wavekey_crypto::ot::{OtPairs, OtReceiver, OtSender};
use wavekey_crypto::sha256::sha256_kernel;
use wavekey_crypto::{hmac_sha256, sha256};
use wavekey_obs::Json;

/// Minimum measurement window per row, in seconds.
const WINDOW_S: f64 = 0.25;
/// The overhead gate's baseline, and the default output.
const BASELINE: &str = "results/BENCH_crypto.json";
/// Rounds of the alternating agreement/control timing: about 10 s at
/// ~22 and ~11 ms per call on one thread.
const OVERHEAD_ROUNDS: usize = 300;
/// How far the agreement/control ratio may rise above the baseline's.
const OVERHEAD_TOL: f64 = 0.01;

struct Sample {
    op: String,
    mean_ns: f64,
    iters: usize,
}

/// Times one row over the window, as the mean per item of a closure
/// that processes `per_call` items per call.
fn time_op<F: FnMut()>(op: &str, per_call: usize, f: F) -> Sample {
    let (mean_ns, iters) = time_window(WINDOW_S, f);
    Sample { op: op.into(), mean_ns: mean_ns / per_call as f64, iters }
}

/// The overhead gate: the fresh agreement/control ratio against the
/// baseline's.
fn overhead_check(ratio: f64, baseline_ratio: f64) -> Check {
    Check::at_most("agreement/control vs baseline", ratio / baseline_ratio - 1.0, OVERHEAD_TOL)
}

/// The median ratio recorded in the baseline file.
fn baseline_ratio() -> f64 {
    let text = std::fs::read_to_string(BASELINE)
        .unwrap_or_else(|e| panic!("overhead gate baseline {BASELINE}: {e}"));
    Json::parse(&text)
        .as_ref()
        .and_then(Json::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("op").and_then(Json::as_str) == Some("agreement_over_control"))
        })
        .and_then(|r| r.get("median_ratio"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{BASELINE} has no agreement_over_control median_ratio"))
}

/// The standard 48-instance three-round OT workload on `group`. Returns
/// the encoded wire messages and the decrypted payloads, in one buffer.
fn ot48(group: &DhGroup) -> (Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>) {
    let (secrets, choices) = ot48_inputs();
    let mut rng_s = StdRng::seed_from_u64(20);
    let mut rng_r = StdRng::seed_from_u64(21);
    let (sender, ma) = OtSender::start(group, secrets, &mut rng_s);
    let (receiver, mb) = OtReceiver::respond(group, &choices, &ma, &mut rng_r).unwrap();
    let me = sender.encrypt(group, &mb).unwrap();
    let payloads = receiver.decrypt(group, &me).unwrap();
    (ma.encode(group), mb.encode(group), me.encode(), payloads)
}

/// The sender secrets and receiver choice bits of the 48-instance workload.
fn ot48_inputs() -> (OtPairs, Vec<bool>) {
    let mut secrets = OtPairs::with_capacity(3, 48);
    for i in 0..48u8 {
        secrets.push(&[i; 3], &[!i; 3]);
    }
    let choices = (0..48).map(|i| i % 3 == 0).collect();
    (secrets, choices)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rng = StdRng::seed_from_u64(7);
    let out_path = args.first().cloned().unwrap_or_else(|| BASELINE.into());

    let group = DhGroup::modp_1024_shared();
    let x = group.random_exponent(&mut rng);
    let y = group.random_exponent(&mut rng);
    let base = group.pow_g(&x);
    let other = group.pow_g(&y);

    let mut samples = Vec::new();

    // `H(element)` of the OT: one 128-byte MODP-1024 element, three blocks.
    let element = base.to_be_bytes_padded(128);
    samples.push(time_op("sha256_128B", 1, || {
        std::hint::black_box(sha256(std::hint::black_box(&element)));
    }));
    // The access verify: a 32-byte key over a 32-byte message, four blocks.
    let (key, message) = ([0x5a; 32], [0xa5; 32]);
    samples.push(time_op("hmac_sha256_32B", 1, || {
        std::hint::black_box(hmac_sha256(std::hint::black_box(&key), &message));
    }));
    samples.push(time_op("modp1024_mod_mul", 1, || {
        std::hint::black_box(group.mul(&base, &other));
    }));
    samples.push(time_op("modp1024_pow_g_fixed_base", 1, || {
        std::hint::black_box(group.pow_g(&x));
    }));
    samples.push(time_op("modp1024_general_modexp", 1, || {
        std::hint::black_box(group.pow(&base, &x));
    }));
    // 48 general exponentiations in one `pow_many` call, the shape of
    // round E and prelim: eight-lane IFMA groups where the CPU has them.
    // Own RNG, so the ops below see the same inputs as without this row.
    let mut rng48 = StdRng::seed_from_u64(48);
    let k = group.limbs();
    let (mut bases, mut exps) = (vec![0u64; 48 * k], vec![0u64; 48 * k]);
    for b in bases.chunks_exact_mut(k) {
        Ubig::random_below(group.modulus(), &mut rng48).write_limbs(b);
    }
    for e in exps.chunks_exact_mut(k) {
        group.random_exponent_into(&mut rng48, e);
    }
    let mut powers = vec![0u64; 48 * k];
    samples.push(time_op("modp1024_general_modexp_x48", 48, || {
        group.pow_many(&bases, &exps, &mut powers);
        std::hint::black_box(&powers);
    }));
    // 48 comb walks in one `pow_g_many` call, the shape of rounds A and B
    // and the `k¹` fold.
    samples.push(time_op("modp1024_pow_g_x48", 48, || {
        group.pow_g_many(&exps, &mut powers);
        std::hint::black_box(&powers);
    }));
    samples.push(time_op("modp1024_inv_pow_g", 1, || {
        std::hint::black_box(group.inv_pow_g(&x));
    }));

    // Round E alone (48 instances, one general modexp through `pow_many`
    // and one comb walk each): the sender's share of
    // `ot_batch48_three_rounds`.
    let (secrets, choices) = ot48_inputs();
    let (sender, ma) = OtSender::start(group, secrets, &mut StdRng::seed_from_u64(20));
    let (_, mb) =
        OtReceiver::respond(group, &choices, &ma, &mut StdRng::seed_from_u64(21)).unwrap();
    samples.push(time_op("modp1024_ot_sender_encrypt48", 1, || {
        std::hint::black_box(sender.encrypt(group, &mb).unwrap());
    }));

    let control = || {
        std::hint::black_box(ot48(group));
    };
    samples.push(time_op("ot_batch48_three_rounds", 1, control));

    let s: Vec<bool> = (0..48).map(|_| rng.gen()).collect();
    let config = AgreementConfig { tau: 10.0, ..Default::default() };
    let agreement = || {
        let mut rng_m = StdRng::seed_from_u64(31);
        let mut rng_s = StdRng::seed_from_u64(32);
        std::hint::black_box(
            run_agreement(&s, &s, &config, &mut rng_m, &mut rng_s, &mut PassiveChannel).unwrap(),
        );
    };
    samples.push(time_op("agreement_full_modp1024_seed48_key256", 1, agreement));

    // Flat JSON array, written by hand: the bench harness must not pull
    // in a serializer for a handful of records.
    let mut json = String::from("[\n");
    for s in samples.iter() {
        let throughput = 1e9 / s.mean_ns;
        json.push_str(&format!(
            "  {{\"op\": \"{}\", \"mean_ns\": {:.1}, \"iters\": {}, \"throughput_per_s\": {:.3}}},\n",
            s.op, s.mean_ns, s.iters, throughput,
        ));
        println!(
            "{:<46} {:>14.1} ns/iter {:>12.2} op/s ({} iters)",
            s.op, s.mean_ns, throughput, s.iters
        );
    }
    let kernel = mont_kernel_1024();
    println!("{:<46} {kernel}", "mont_kernel_1024");
    json.push_str(&format!("  {{\"op\": \"mont_kernel_1024\", \"kernel\": \"{kernel}\"}},\n"));
    let lanes = pow_many_kernel_1024();
    println!("{:<46} {lanes}", "pow_many_kernel_1024");
    json.push_str(&format!("  {{\"op\": \"pow_many_kernel_1024\", \"kernel\": \"{lanes}\"}},\n"));
    let hash = sha256_kernel();
    println!("{:<46} {hash}", "sha256_kernel");
    json.push_str(&format!("  {{\"op\": \"sha256_kernel\", \"kernel\": \"{hash}\"}},\n"));

    let ratio = median_ratio(&alternate(OVERHEAD_ROUNDS, agreement, control));
    println!(
        "{:<46} {ratio:.4} (median of {OVERHEAD_ROUNDS} rounds, one thread)",
        "agreement_over_control"
    );
    json.push_str(&format!(
        "  {{\"op\": \"agreement_over_control\", \"median_ratio\": {ratio:.4}, \
         \"rounds\": {OVERHEAD_ROUNDS}, \"threads\": 1}}\n]\n"
    ));
    wavekey_bench::write_results(&out_path, &json);

    if out_path != BASELINE {
        gate::enforce("observability overhead", &[overhead_check(ratio, baseline_ratio())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate's decision on synthetic rounds of (agreement, control)
    /// seconds, against a baseline ratio of 2.
    fn decide(rounds: &[(f64, f64)]) -> bool {
        overhead_check(median_ratio(rounds), 2.0).pass
    }

    #[test]
    fn equal_sides_pass() {
        assert!(decide(&[(0.012, 0.006); 300]));
    }

    #[test]
    fn a_slow_phase_over_both_sides_passes() {
        let rounds: Vec<_> =
            (0..300).map(|i| if i < 150 { (0.024, 0.012) } else { (0.012, 0.006) }).collect();
        assert!(decide(&rounds));
    }

    #[test]
    fn an_agreement_ten_percent_slower_fails() {
        assert!(!decide(&[(0.0132, 0.006); 300]));
    }
}
