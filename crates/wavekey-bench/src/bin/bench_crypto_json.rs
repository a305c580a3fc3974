//! Machine-readable crypto micro-benchmarks and the observability
//! overhead gate: times the ristretto255 operations, SHA-256 and HMAC at
//! the OT's and the access verify's input sizes, the 48-instance OT
//! rounds and the full agreement, then writes `results/BENCH_crypto.json`,
//! the perf trajectory and the gate's baseline.
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
//! with `*_x48` ops reporting per-multiplication cost (total / 48), then
//! one record naming the SHA-256 compression kernel behind the hash rows
//! (`{"op": "sha256_kernel", "kernel": "shani" | "portable"}`), and the
//! overhead gate's record (`{"op": "agreement_over_control",
//! "median_ratio": float, "rounds": int, "threads": 1}`).
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
use wavekey_crypto::group::Group;
use wavekey_crypto::ot::{OtPairs, OtReceiver, OtSender};
use wavekey_crypto::sha256::sha256_kernel;
use wavekey_crypto::{hmac_sha256, sha256};
use wavekey_obs::Json;

/// Minimum measurement window per row, in seconds.
const WINDOW_S: f64 = 0.25;
/// The overhead gate's baseline, and the default output.
const BASELINE: &str = "results/BENCH_crypto.json";
/// Rounds of the alternating agreement/control timing: about 10 s at
/// ~20 and ~10 ms per call on one thread.
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
/// the wire messages and the decrypted payloads, in one buffer.
fn ot48(group: Group) -> (Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>) {
    let (secrets, choices) = ot48_inputs();
    let mut rng_s = StdRng::seed_from_u64(20);
    let mut rng_r = StdRng::seed_from_u64(21);
    let (sender, ma) = OtSender::start(group, secrets, &mut rng_s);
    let (receiver, mb) = OtReceiver::respond(group, &choices, &ma, &mut rng_r).unwrap();
    let me = sender.encrypt(group, &mb).unwrap();
    let payloads = receiver.decrypt(group, &me).unwrap();
    (ma, mb, me, payloads)
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

    let group = Group::Ristretto255;
    let (sw, pw, w) = (group.scalar_words(), group.point_words(), group.element_len());
    // 48 scalars and their multiples of G; row 0 is the single-call input.
    let mut scalars = vec![0u64; 48 * sw];
    for x in scalars.chunks_exact_mut(sw) {
        group.random_scalar_into(&mut rng, x);
    }
    let mut points = vec![0u64; 48 * pw];
    group.mul_base_many(&scalars, &mut points);
    let (x, p, q) = (&scalars[..sw], &points[..pw], &points[pw..2 * pw]);
    let mut out = vec![0u64; 48 * pw];
    let mut element = vec![0u8; w];
    group.encode_into(p, &mut element);

    let mut samples = Vec::new();

    // `H(element)` of the OT: one 32-byte ristretto255 encoding, one block.
    samples.push(time_op("sha256_32B_element", 1, || {
        std::hint::black_box(sha256(std::hint::black_box(&element)));
    }));
    // The access verify: a 32-byte key over a 32-byte message, four blocks.
    let (key, message) = ([0x5a; 32], [0xa5; 32]);
    samples.push(time_op("hmac_sha256_32B", 1, || {
        std::hint::black_box(hmac_sha256(std::hint::black_box(&key), &message));
    }));
    samples.push(time_op("ristretto255_add", 1, || {
        group.add_into(p, q, &mut out[..pw]);
        std::hint::black_box(&out);
    }));
    samples.push(time_op("ristretto255_encode", 1, || {
        group.encode_into(p, &mut element);
        std::hint::black_box(&element);
    }));
    samples.push(time_op("ristretto255_decode", 1, || {
        std::hint::black_box(group.decode_into(&element, &mut out[..pw]));
    }));
    samples.push(time_op("ristretto255_mul_base", 1, || {
        group.mul_base_many(x, &mut out[..pw]);
        std::hint::black_box(&out);
    }));
    samples.push(time_op("ristretto255_mul", 1, || {
        group.mul_many(p, x, &mut out[..pw]);
        std::hint::black_box(&out);
    }));
    // 48 variable-base multiplications by one scalar in one `mul_many`
    // call, the shape of round E.
    samples.push(time_op("ristretto255_mul_x48", 48, || {
        group.mul_many(&points, x, &mut out);
        std::hint::black_box(&out);
    }));
    // 48 walks of the generator's comb in one `mul_base_many` call, the
    // shape of round B.
    samples.push(time_op("ristretto255_mul_base_x48", 48, || {
        group.mul_base_many(&scalars, &mut out);
        std::hint::black_box(&out);
    }));
    // The comb of a fresh point, and 48 walks on it: the receiver's
    // `bᵢ·M_A` at prelim (informational rows).
    samples.push(time_op("ristretto255_comb_build", 1, || {
        std::hint::black_box(group.comb(std::hint::black_box(q)));
    }));
    let comb = group.comb(q);
    samples.push(time_op("ristretto255_comb_walk_x48", 48, || {
        comb.mul_many(&scalars, &mut out);
        std::hint::black_box(&out);
    }));

    // Round E alone (48 instances: decode, one variable-base
    // multiplication and two encodes each, one comb walk for the batch):
    // the sender's share of `ot_batch48_three_rounds`.
    let (secrets, choices) = ot48_inputs();
    let (sender, ma) = OtSender::start(group, secrets, &mut StdRng::seed_from_u64(20));
    let (_, mb) =
        OtReceiver::respond(group, &choices, &ma, &mut StdRng::seed_from_u64(21)).unwrap();
    samples.push(time_op("ristretto255_ot_sender_encrypt48", 1, || {
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
    samples.push(time_op("agreement_full_ristretto255_seed48_key256", 1, agreement));

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
