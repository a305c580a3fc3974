//! Machine-readable crypto micro-benchmarks: times the exponentiation
//! kernels, SHA-256 and HMAC at the OT's and the access verify's input
//! sizes, the 48-instance OT rounds and the full MODP-1024 agreement,
//! then writes `results/BENCH_crypto.json` so future PRs can track the
//! perf trajectory.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin bench_crypto_json [out_path]
//! ```
//!
//! Each op is warmed up once, then timed over enough iterations to fill
//! a minimum measurement window (`WAVEKEY_BENCH_WINDOW` overrides the
//! default 0.25 s; `WAVEKEY_THREADS` caps the parallelism as everywhere
//! else). The JSON schema is a flat list:
//! `{ "op": str, "mean_ns": float, "iters": int, "throughput_per_s": float }`,
//! with `*_x48` ops reporting per-exponentiation cost (total / 48), then
//! one record naming the 16-limb Montgomery kernel the run used
//! (`{"op": "mont_kernel_1024", "kernel": "adx" | "portable"}`) and one
//! naming the kernel behind `DhGroup::pow_many` and the comb walk of
//! `DhGroup::pow_g_many`
//! (`{"op": "pow_many_kernel_1024", "kernel": "ifma8" | "scalar"}`),
//! and one naming the SHA-256 compression kernel behind the two hash
//! rows (`{"op": "sha256_kernel", "kernel": "shani" | "portable"}`).
//!
//! On `ifma8` hosts the single-call `modp1024_pow_g_fixed_base` and
//! `modp1024_inv_pow_g` rows time a lane group of eight padded around
//! one exponent; `modp1024_pow_g_x48` is the per-walk cost of the
//! 48-exponent calls the OT makes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use wavekey_core::agreement::{run_agreement, AgreementConfig};
use wavekey_core::channel::PassiveChannel;
use wavekey_crypto::bigint::{mont_kernel_1024, pow_many_kernel_1024, Ubig};
use wavekey_crypto::group::DhGroup;
use wavekey_crypto::ot::{OtPairs, OtReceiver, OtSender};
use wavekey_crypto::sha256::sha256_kernel;
use wavekey_crypto::{hmac_sha256, sha256};

/// Minimum total measurement time per op (seconds); `WAVEKEY_BENCH_WINDOW`
/// overrides it (the CI overhead gate uses a longer window so the slow
/// full-agreement op averages over enough iterations to be stable).
fn min_window() -> f64 {
    std::env::var("WAVEKEY_BENCH_WINDOW")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}

struct Sample {
    op: String,
    mean_ns: f64,
    iters: usize,
}

/// Times `f` adaptively: doubles the iteration count until one run
/// lasts at least `window` seconds, then reports that run's mean.
fn time_op<F: FnMut()>(op: &str, window: f64, mut f: F) -> Sample {
    f(); // warm-up (also warms caches / lazy statics)
    let mut iters = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= window {
            return Sample { op: op.into(), mean_ns: elapsed * 1e9 / iters as f64, iters };
        }
        iters *= 2;
    }
}

/// Like [`time_op`], but reports the amortized per-item mean for a
/// closure that processes `n` items per call.
fn time_op_amortized<F: FnMut()>(op: &str, window: f64, n: usize, f: F) -> Sample {
    let mut s = time_op(op, window, f);
    s.mean_ns /= n as f64;
    s
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

fn write_out(out_path: &str, json: &str) {
    if let Some(parent) = std::path::Path::new(out_path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(out_path, json).expect("write bench json");
    println!("\nwrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rng = StdRng::seed_from_u64(7);
    let out_path = args.first().cloned().unwrap_or_else(|| "results/BENCH_crypto.json".into());
    let window = min_window();

    let group = DhGroup::modp_1024_shared();
    let x = group.random_exponent(&mut rng);
    let y = group.random_exponent(&mut rng);
    let base = group.pow_g(&x);
    let other = group.pow_g(&y);

    let mut samples = Vec::new();

    // `H(element)` of the OT: one 128-byte MODP-1024 element, three blocks.
    let element = base.to_be_bytes_padded(128);
    samples.push(time_op("sha256_128B", window, || {
        std::hint::black_box(sha256(std::hint::black_box(&element)));
    }));
    // The access verify: a 32-byte key over a 32-byte message, four blocks.
    let (key, message) = ([0x5a; 32], [0xa5; 32]);
    samples.push(time_op("hmac_sha256_32B", window, || {
        std::hint::black_box(hmac_sha256(std::hint::black_box(&key), &message));
    }));
    samples.push(time_op("modp1024_mod_mul", window, || {
        std::hint::black_box(group.mul(&base, &other));
    }));
    samples.push(time_op("modp1024_pow_g_fixed_base", window, || {
        std::hint::black_box(group.pow_g(&x));
    }));
    samples.push(time_op("modp1024_general_modexp", window, || {
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
    samples.push(time_op_amortized("modp1024_general_modexp_x48", window, 48, || {
        group.pow_many(&bases, &exps, &mut powers);
        std::hint::black_box(&powers);
    }));
    // 48 comb walks in one `pow_g_many` call, the shape of rounds A and B
    // and the `k¹` fold.
    samples.push(time_op_amortized("modp1024_pow_g_x48", window, 48, || {
        group.pow_g_many(&exps, &mut powers);
        std::hint::black_box(&powers);
    }));
    samples.push(time_op("modp1024_inv_pow_g", window, || {
        std::hint::black_box(group.inv_pow_g(&x));
    }));

    // Round E alone (48 instances, one general modexp through `pow_many`
    // and one comb walk each): the sender's share of
    // `ot_batch48_three_rounds`.
    let (secrets, choices) = ot48_inputs();
    let (sender, ma) = OtSender::start(group, secrets, &mut StdRng::seed_from_u64(20));
    let (_, mb) =
        OtReceiver::respond(group, &choices, &ma, &mut StdRng::seed_from_u64(21)).unwrap();
    samples.push(time_op("modp1024_ot_sender_encrypt48", window, || {
        std::hint::black_box(sender.encrypt(group, &mb).unwrap());
    }));

    samples.push(time_op("ot_batch48_three_rounds", window, || {
        std::hint::black_box(ot48(group));
    }));

    let s: Vec<bool> = (0..48).map(|_| rng.gen()).collect();
    let config = AgreementConfig { tau: 10.0, ..Default::default() };
    samples.push(time_op("agreement_full_modp1024_seed48_key256", window, || {
        let mut rng_m = StdRng::seed_from_u64(31);
        let mut rng_s = StdRng::seed_from_u64(32);
        std::hint::black_box(
            run_agreement(&s, &s, &config, &mut rng_m, &mut rng_s, &mut PassiveChannel)
                .unwrap(),
        );
    }));

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
    json.push_str(&format!("  {{\"op\": \"sha256_kernel\", \"kernel\": \"{hash}\"}}\n]\n"));

    write_out(&out_path, &json);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ops_are_timed_over_the_whole_window() {
        let window = 0.002;
        let s = time_op("noop", window, || {
            std::hint::black_box(0u64);
        });
        let total_ns = s.iters as f64 * s.mean_ns;
        assert!(total_ns >= window * 1e9, "{} iters over {total_ns} ns", s.iters);
    }
}
