//! Machine-readable crypto micro-benchmarks: times the exponentiation
//! kernels, the batched OT rounds, the WAVEKEY-1024 fleet-group batch
//! executor, and full MODP-1024 / amortized fleet agreements, then
//! writes `results/BENCH_crypto.json` so future PRs can track the perf
//! trajectory.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin bench_crypto_json [out_path]
//! cargo run --release -p wavekey-bench --bin bench_crypto_json --equivalence-only [out_path]
//! ```
//!
//! Each op is warmed up once, then timed over enough iterations to fill
//! a minimum measurement window (`WAVEKEY_BENCH_WINDOW` overrides the
//! default 0.25 s; `WAVEKEY_THREADS` caps the executor's parallelism as
//! everywhere else). The JSON schema is a flat list:
//! `{ "op": str, "mean_ns": float, "iters": int, "throughput_per_s": float }`,
//! with `*_amortized` ops reporting per-item cost (total / batch size),
//! then one record naming the 16-limb Montgomery kernel the run used
//! (`{"op": "mont_kernel_1024", "kernel": "adx" | "portable"}`), and one
//! trailing equivalence record
//! (`{"op": "fleet_batch48_equivalence", "keys_bit_identical": bool, ...}`)
//! asserting the batched routes reproduce the scalar keys bit for bit.
//!
//! `--equivalence-only` skips all timing and writes just the equivalence
//! record — the CI batch gate runs it once per `WAVEKEY_THREADS` setting
//! (the thread cap is read once per process, so each width needs its own
//! process).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use wavekey_core::agreement::{run_agreement, AgreementConfig};
use wavekey_core::channel::PassiveChannel;
use wavekey_core::SessionManager;
use wavekey_crypto::batch::ModexpBatch;
use wavekey_crypto::bigint::{mont_kernel_1024, Ubig};
use wavekey_crypto::group::DhGroup;
use wavekey_crypto::ot::{OtReceiver, OtSender};

/// Minimum total measurement time per op (seconds); `WAVEKEY_BENCH_WINDOW`
/// overrides it (the CI overhead gate uses a longer window so the slow
/// full-agreement op averages over enough iterations to be stable).
fn min_window() -> f64 {
    std::env::var("WAVEKEY_BENCH_WINDOW")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}
/// Iteration cap for very slow ops.
const MAX_ITERS: usize = 10_000;

struct Sample {
    op: String,
    mean_ns: f64,
    iters: usize,
}

/// Times `f` adaptively: doubles the iteration count until the run
/// exceeds [`min_window`], then reports the mean.
fn time_op<F: FnMut()>(op: &str, mut f: F) -> Sample {
    let min_window = min_window();
    f(); // warm-up (also warms caches / lazy statics)
    let mut iters = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_window || iters >= MAX_ITERS {
            return Sample { op: op.into(), mean_ns: elapsed * 1e9 / iters as f64, iters };
        }
        iters = (iters * 2).min(MAX_ITERS);
    }
}

/// Like [`time_op`], but reports the amortized per-item mean for a
/// closure that processes `n` items per call.
fn time_op_amortized<F: FnMut()>(op: &str, n: usize, f: F) -> Sample {
    let mut s = time_op(op, f);
    s.mean_ns /= n as f64;
    s
}

/// The standard 48-instance three-round OT workload on `group`, through
/// the scalar or the batched route. Returns the encoded wire messages and
/// decrypted payloads so callers can compare routes bit for bit.
fn ot48(group: &DhGroup, batched: bool) -> (Vec<u8>, Vec<u8>, Vec<u8>, Vec<Vec<u8>>) {
    let (secrets, choices) = ot48_inputs();
    let mut rng_s = StdRng::seed_from_u64(20);
    let mut rng_r = StdRng::seed_from_u64(21);
    if batched {
        let (sender, ma) = OtSender::start_batched(group, secrets, &mut rng_s);
        let (receiver, mb) = OtReceiver::respond_batched(group, &choices, &ma, &mut rng_r).unwrap();
        let me = sender.encrypt_batched(group, &mb).unwrap();
        let payloads = receiver.decrypt_batched(group, &me).unwrap();
        (ma.encode(group), mb.encode(group), me.encode(), payloads)
    } else {
        let (sender, ma) = OtSender::start(group, secrets, &mut rng_s);
        let (receiver, mb) = OtReceiver::respond(group, &choices, &ma, &mut rng_r).unwrap();
        let me = sender.encrypt(group, &mb).unwrap();
        let payloads = receiver.decrypt(group, &me).unwrap();
        (ma.encode(group), mb.encode(group), me.encode(), payloads)
    }
}

/// The sender secrets and receiver choice bits of the 48-instance workload.
fn ot48_inputs() -> (Vec<(Vec<u8>, Vec<u8>)>, Vec<bool>) {
    let secrets = (0..48).map(|i| (vec![i as u8; 3], vec![!(i as u8); 3])).collect();
    let choices = (0..48).map(|i| i % 3 == 0).collect();
    (secrets, choices)
}

/// The fleet deployment config: WAVEKEY-1024 group, batch-routed OT.
fn fleet_config(batched: bool) -> AgreementConfig {
    AgreementConfig { fleet_group: true, batched_crypto: batched, tau: 10.0, ..Default::default() }
}

/// Runs `n` identical-seed agreements through `spawn_many` (pooling the
/// start round across sessions) and returns per-session keys.
fn fleet_spawn_many(n: usize, s: &[bool], batched: bool) -> Vec<Vec<u8>> {
    let config = fleet_config(batched);
    let seeds: Vec<_> = (0..n).map(|_| (s.to_vec(), s.to_vec())).collect();
    let rngs: Vec<_> = (0..n as u64)
        .map(|i| (StdRng::seed_from_u64(31 + i), StdRng::seed_from_u64(1031 + i)))
        .collect();
    let mut manager = SessionManager::new(8);
    let mut adversary = PassiveChannel;
    let ids = manager.spawn_many(&seeds, &config, rngs, &mut adversary).expect("spawn_many");
    let ok = manager.run_to_completion(&mut adversary);
    assert_eq!(ok, n, "fleet agreement batch must fully succeed");
    ids.iter()
        .map(|id| {
            manager.outcome(*id).expect("outcome").as_ref().expect("success").agreement.key.clone()
        })
        .collect()
}

/// The batched routes must reproduce the scalar keys bit for bit: OT wire
/// messages and payloads, full-agreement keys, and `spawn_many`-pooled
/// keys, all on the fleet group where the fold path is live.
fn equivalence_check(s: &[bool]) -> bool {
    let fleet = DhGroup::wavekey_1024_shared();
    let mut ok = ot48(fleet, false) == ot48(fleet, true);

    let run = |config: &AgreementConfig| {
        let mut rng_m = StdRng::seed_from_u64(31);
        let mut rng_s = StdRng::seed_from_u64(32);
        run_agreement(s, s, config, &mut rng_m, &mut rng_s, &mut PassiveChannel)
            .expect("fleet agreement")
            .key
    };
    ok &= run(&fleet_config(true)) == run(&fleet_config(false));
    ok &= fleet_spawn_many(4, s, true) == fleet_spawn_many(4, s, false);
    ok
}

fn equivalence_record(s: &[bool]) -> (bool, String) {
    let identical = equivalence_check(s);
    let threads = wavekey_par::configured_threads().unwrap_or(0);
    let record = format!(
        "{{\"op\": \"fleet_batch48_equivalence\", \"keys_bit_identical\": {identical}, \"wavekey_threads\": {threads}}}"
    );
    (identical, record)
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

    if args.first().map(String::as_str) == Some("--equivalence-only") {
        let out_path =
            args.get(1).cloned().unwrap_or_else(|| "results/BENCH_equivalence.json".into());
        let s: Vec<bool> = (0..48).map(|_| rng.gen()).collect();
        let (identical, record) = equivalence_record(&s);
        println!("keys_bit_identical     {identical}");
        write_out(&out_path, &format!("[\n  {record}\n]\n"));
        return;
    }
    let out_path = args.first().cloned().unwrap_or_else(|| "results/BENCH_crypto.json".into());

    let group = DhGroup::modp_1024_shared();
    let x = group.random_exponent(&mut rng);
    let y = group.random_exponent(&mut rng);
    let base = group.pow_g(&x);
    let other = group.pow_g(&y);

    let mut samples = Vec::new();

    samples.push(time_op("modp1024_mod_mul", || {
        std::hint::black_box(group.mul(&base, &other));
    }));
    samples.push(time_op("modp1024_pow_g_fixed_base", || {
        std::hint::black_box(group.pow_g(&x));
    }));
    samples.push(time_op("modp1024_general_modexp", || {
        std::hint::black_box(group.pow(&base, &x));
    }));
    samples.push(time_op("modp1024_inv_pow_g", || {
        std::hint::black_box(group.inv_pow_g(&x));
    }));

    // Round E alone (48 instances, one general modexp and one comb walk
    // each): the scalar sender's share of `ot_batch48_three_rounds`.
    let (secrets, choices) = ot48_inputs();
    let (sender, ma) = OtSender::start(group, secrets, &mut StdRng::seed_from_u64(20));
    let (_, mb) =
        OtReceiver::respond(group, &choices, &ma, &mut StdRng::seed_from_u64(21)).unwrap();
    samples.push(time_op("modp1024_ot_sender_encrypt48", || {
        std::hint::black_box(sender.encrypt(group, &mb).unwrap());
    }));

    samples.push(time_op("ot_batch48_three_rounds", || {
        std::hint::black_box(ot48(group, false));
    }));

    let s: Vec<bool> = (0..48).map(|_| rng.gen()).collect();
    let config = AgreementConfig { tau: 10.0, ..Default::default() };
    samples.push(time_op("agreement_full_modp1024_seed48_key256", || {
        let mut rng_m = StdRng::seed_from_u64(31);
        let mut rng_s = StdRng::seed_from_u64(32);
        std::hint::black_box(
            run_agreement(&s, &s, &config, &mut rng_m, &mut rng_s, &mut PassiveChannel)
                .unwrap(),
        );
    }));

    // --- WAVEKEY-1024 fleet group: the batch executor's fold path vs the
    // scalar Montgomery route on the same group (the CI batch gate
    // compares the batched mean against `ot_batch48_three_rounds` above,
    // the scalar MODP-1024 workload).
    let fleet = DhGroup::wavekey_1024_shared();
    samples.push(time_op("ot_batch48_three_rounds_wavekey1024_scalar", || {
        std::hint::black_box(ot48(fleet, false));
    }));
    samples.push(time_op("ot_batch48_three_rounds_wavekey1024_batched", || {
        std::hint::black_box(ot48(fleet, true));
    }));

    // --- Batch-size sweep: amortized per-modexp cost through the batch
    // executor (general jobs, fleet group) at each gathered batch size.
    for n in [1usize, 4, 16, 48, 128] {
        let mut rng_b = StdRng::seed_from_u64(0x5EED + n as u64);
        let jobs: Vec<(Ubig, Ubig)> = (0..n)
            .map(|_| {
                (
                    Ubig::random_below(fleet.modulus(), &mut rng_b),
                    fleet.random_exponent(&mut rng_b),
                )
            })
            .collect();
        samples.push(time_op_amortized(&format!("fleet_modexp_batch{n}_amortized"), n, || {
            let mut batch = ModexpBatch::new();
            for (b, e) in &jobs {
                batch.push_pow(fleet, b.clone(), e.clone());
            }
            std::hint::black_box(batch.execute());
        }));
    }

    // --- Amortized per-agreement cost: n fleet sessions spawned through
    // `spawn_many` (start rounds pooled into one cross-session batch,
    // remaining OT rounds batched within each session).
    for n in [1usize, 4, 16, 48, 128] {
        samples.push(time_op_amortized(&format!("fleet_agreement_batch{n}_amortized"), n, || {
            std::hint::black_box(fleet_spawn_many(n, &s, true));
        }));
    }

    let (identical, equivalence) = equivalence_record(&s);
    println!("keys_bit_identical (fleet batched vs scalar)   {identical}");

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
    json.push_str(&format!("  {equivalence}\n]\n"));

    write_out(&out_path, &json);
}
