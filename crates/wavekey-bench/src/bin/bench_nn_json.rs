//! Machine-readable NN kernel benchmarks and the neural training-speed
//! and int8 inference gates. Times forward+backward on every layer shape
//! the WaveKey models actually use, under both the blocked im2col/GEMM
//! kernels and the pinned naive reference loops, trains on
//! production-shaped batches with each backend, calibrates the int8
//! encoders, and writes `results/BENCH_nn.json`.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin bench_nn_json [out_path]
//! ```
//!
//! The JSON schema is a flat list. Layer records are
//! `{ "op": str, "reference_ns": float, "gemm_ns": float, "speedup": float }`;
//! int8 records are `{ "op": str, "f32_ns": float, "int8_ns": float,
//! "int8_speedup": float }` (inference-shaped, batch 1) followed by one
//! `int8_quantization_summary` record carrying the int8 gate's fields:
//! `encoder_int8_speedup` (the slower of the two encoders' whole-forward
//! speedups), `seeds_bit_identical` (quantized key-seeds equal the f32
//! seeds on every corpus window), `model_bytes_f64`/`model_bytes_int8` and
//! their `int8_size_ratio`, plus `wavekey_threads` (the `WAVEKEY_THREADS`
//! cap in effect, 0 = unset). The final record is the training comparison
//! with `reference_s`/`gemm_s` (per-side medians), `train_speedup` and
//! `loss_bit_identical`: the GEMM lowering preserves accumulation order,
//! so the two backends produce bit-identical loss curves and models.
//!
//! Layer and per-op rows time each side over its own adaptive window and
//! are informational. The two gated speedups time their sides call by
//! call in alternation on one thread ([`wavekey_bench::timing::alternate`])
//! and take the median of the per-round ratios, so a slow phase of the
//! host hits both sides of a round alike: whole GEMM against whole reference
//! trainings (fresh models, same seed, bit-identity checked on every
//! pair), and each encoder's f32 against its int8 forward. The gates, at
//! the bounds below: losses and models bit-identical, training speedup
//! ≥ 2.5×, both encoders calibrated with bit-identical int8 seeds, int8
//! encoder speedup ≥ 2.0×, and int8 bytes ≤ 0.30 of f64. The run exits
//! non-zero when one fails.

use wavekey_bench::gate::{self, Check};
use wavekey_bench::timing::{alternate, median, median_ratio, time_window};
use wavekey_core::dataset::{generate, DatasetConfig};
use wavekey_core::model::WaveKeyModels;
use wavekey_core::quantize::calibrate;
use wavekey_core::seed::SeedGenerator;
use wavekey_core::session::{Session, SessionConfig};
use wavekey_core::training::{train, TrainingConfig};
use wavekey_core::WaveKeyConfig;
use wavekey_imu::sensors::DeviceModel;
use wavekey_nn::layer::{Conv1d, ConvTranspose1d, Dense, Layer};
use wavekey_nn::net::Sequential;
use wavekey_nn::quant::QuantizedSequential;
use wavekey_nn::tensor::Tensor;
use wavekey_nn::{set_kernel_backend, KernelBackend};

/// Minimum measurement window per informational row, in seconds.
const WINDOW_S: f64 = 0.2;
/// Alternating rounds of whole GEMM and reference trainings.
const TRAIN_ROUNDS: usize = 15;
/// Alternating rounds of f32 and int8 forwards, per encoder.
const ENCODER_ROUNDS: usize = 2_000;
/// The GEMM backend's floor over the reference loops, whole training.
const TRAIN_SPEEDUP_MIN: f64 = 2.5;
/// The int8 floor over the f32 forward, the slower of the two encoders.
const INT8_SPEEDUP_MIN: f64 = 2.0;
/// The int8 models' ceiling as a share of the f64 serialization.
const INT8_SIZE_RATIO_MAX: f64 = 0.30;

/// Mean nanoseconds per call of `f` over the window.
fn time_ns<F: FnMut()>(f: F) -> f64 {
    time_window(WINDOW_S, f).0
}

/// The two gates: bit-identical trainings at the speedup floor, and both
/// encoders calibrated, with bit-identical seeds, at the int8 speedup
/// floor and size ceiling.
fn checks(
    loss_bit_identical: bool,
    train_speedup: f64,
    imu_quantized: bool,
    rf_quantized: bool,
    seeds_bit_identical: bool,
    int8_speedup: f64,
    int8_size_ratio: f64,
) -> Vec<Check> {
    vec![
        Check::holds("losses and models bit-identical", loss_bit_identical),
        Check::at_least("training speedup (x)", train_speedup, TRAIN_SPEEDUP_MIN),
        Check::holds("imu encoder calibrated", imu_quantized),
        Check::holds("rf encoder calibrated", rf_quantized),
        Check::holds("int8 seeds bit-identical", seeds_bit_identical),
        Check::at_least("int8 encoder speedup (x)", int8_speedup, INT8_SPEEDUP_MIN),
        Check::at_most("int8 bytes / f64 bytes", int8_size_ratio, INT8_SIZE_RATIO_MAX),
    ]
}

struct LayerRecord {
    op: &'static str,
    reference_ns: f64,
    gemm_ns: f64,
}

struct Int8Record {
    op: &'static str,
    f32_ns: f64,
    int8_ns: f64,
    speedup: f64,
}

/// Dataset samples are un-batched `[C, L]`; the conv stacks want
/// `[1, C, L]`.
fn batched(t: &Tensor) -> Tensor {
    let s = t.shape();
    t.reshaped(vec![1, s[0], s[1]])
}

/// A deterministic int8-range activation vector (timing does not depend
/// on the values, only the geometry).
fn input_q(n: usize) -> Vec<i16> {
    (0..n).map(|i| ((i * 2_654_435_761) % 255) as i16 - 127).collect()
}

/// Prints and records one f32-vs-int8 comparison.
fn int8_record(op: &'static str, f32_ns: f64, int8_ns: f64, speedup: f64) -> Int8Record {
    println!("{op:<34} f32 {f32_ns:>12.0} ns  int8 {int8_ns:>12.0} ns  speedup {speedup:>5.2}x");
    Int8Record { op, f32_ns, int8_ns, speedup }
}

/// Each side's median of alternated rounds, in nanoseconds.
fn side_medians(rounds: &[(f64, f64)]) -> (f64, f64) {
    let side = |pick: fn(&(f64, f64)) -> f64| median(rounds.iter().map(pick).collect()) * 1e9;
    (side(|r| r.0), side(|r| r.1))
}

/// A deterministic pseudo-random input tensor (no RNG needed: layer seeds
/// already vary the weights; the timing does not depend on values).
fn input(shape: Vec<usize>) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n).map(|i| ((i * 2_654_435_761) % 1_000) as f32 / 500.0 - 1.0).collect();
    Tensor::from_vec(data, shape)
}

/// Times one forward+backward pass of `layer` on `x` under each backend.
fn bench_layer(op: &'static str, mut layer: impl Layer, x: Tensor) -> LayerRecord {
    let mut run = |backend| {
        set_kernel_backend(backend);
        time_ns(|| {
            let out = layer.forward(&x, true);
            let grad = layer.backward(&out);
            std::hint::black_box(grad);
            layer.zero_grad();
        })
    };
    let gemm_ns = run(KernelBackend::Gemm);
    let reference_ns = run(KernelBackend::Reference);
    set_kernel_backend(KernelBackend::Gemm);
    println!(
        "{:<34} ref {:>12.0} ns  gemm {:>12.0} ns  speedup {:>5.2}x",
        op,
        reference_ns,
        gemm_ns,
        reference_ns / gemm_ns
    );
    LayerRecord { op, reference_ns, gemm_ns }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_nn.json".into());

    // Every conv/dense shape from model.rs (batch 32, the training batch).
    println!("== layer forward+backward (batch 32, production shapes) ==");
    let layers = vec![
        bench_layer(
            "imu_conv1_3x8k7s2_l200",
            Conv1d::with_stride(3, 8, 7, 2, 0, 11),
            input(vec![32, 3, 200]),
        ),
        bench_layer(
            "imu_conv2_8x16k5s2_l97",
            Conv1d::with_stride(8, 16, 5, 2, 0, 12),
            input(vec![32, 8, 97]),
        ),
        bench_layer(
            "rf_conv1_3x8k9s4_l400",
            Conv1d::with_stride(3, 8, 9, 4, 0, 13),
            input(vec![32, 3, 400]),
        ),
        bench_layer("enc_dense_752x12", Dense::new(752, 12, 14), input(vec![32, 752])),
        bench_layer(
            "de_deconv1_12x16k8s4_l1",
            ConvTranspose1d::new(12, 16, 8, 4, 15),
            input(vec![32, 12, 1]),
        ),
        bench_layer(
            "de_deconv2_8x4k12s3_l32",
            ConvTranspose1d::new(8, 4, 12, 3, 16),
            input(vec![32, 8, 32]),
        ),
        bench_layer("de_dense_420x400", Dense::new(420, 400, 17), input(vec![32, 420])),
    ];

    // Training comparison: production layer shapes and batch size (l_f 12,
    // batch 32), a reduced dataset/epoch count so the run stays in bench
    // territory. Both backends see the identical dataset and seed.
    println!("\n== train (l_f 12, batch 32, 128 samples, 3 epochs) ==");
    let dataset_config = DatasetConfig {
        volunteers: 2,
        devices: vec![DeviceModel::GalaxyWatch],
        gestures_per_combo: 4,
        windows_per_gesture: 16,
        active_duration: 6.0,
        dynamic_fraction: 0.5,
        seed: 0x0da7a,
    };
    let dataset = generate(&dataset_config);
    let config = TrainingConfig { epochs: 3, ..Default::default() };
    let seed = 0x5eed;

    // One whole training per backend: fresh models, the same seed.
    let run_train = |backend| {
        set_kernel_backend(backend);
        let mut models = WaveKeyModels::new(config.l_f, seed);
        let report = train(&mut models, &dataset, &config, seed).expect("train");
        (report.epoch_losses, models.encode())
    };
    let (mut reference_runs, mut gemm_runs) = (Vec::new(), Vec::new());
    let rounds = alternate(
        TRAIN_ROUNDS,
        || reference_runs.push(run_train(KernelBackend::Reference)),
        || gemm_runs.push(run_train(KernelBackend::Gemm)),
    );
    set_kernel_backend(KernelBackend::Gemm);

    let loss_bit_identical = reference_runs == gemm_runs;
    let train_speedup = median_ratio(&rounds);
    let (reference_ns, gemm_ns) = side_medians(&rounds);
    let (reference_s, gemm_s) = (reference_ns / 1e9, gemm_ns / 1e9);
    println!(
        "train_autoencoders  ref {reference_s:.3} s  gemm {gemm_s:.3} s  \
         speedup {train_speedup:.2}x (median of {TRAIN_ROUNDS} rounds)  \
         loss_bit_identical {loss_bit_identical}"
    );
    let gemm_model = gemm_runs.swap_remove(0).1;

    // Quantized inference: calibrate int8 encoders against the training
    // corpus, verify key-seed equivalence end to end, and time the int8
    // path against the f32 GEMM path at inference shapes (batch 1).
    println!("\n== int8 quantized inference (batch 1, inference shapes) ==");
    let mut models = WaveKeyModels::decode(&gemm_model).expect("trained model blob");
    let n_b = WaveKeyConfig::default().n_b;
    let outcome = calibrate(&mut models, &dataset, n_b);
    println!(
        "calibrate: imu_quantized {}  rf_quantized {}  ({} corpus windows)",
        outcome.imu_quantized, outcome.rf_quantized, outcome.samples
    );

    let imu_inputs: Vec<Tensor> = dataset.samples.iter().map(|s| batched(&s.a)).collect();
    let rf_inputs: Vec<Tensor> = dataset.samples.iter().map(|s| batched(&s.r)).collect();

    // Independent re-check of the gated property: quantized key-seeds must
    // equal the f32 seeds on every corpus window, for both encoders.
    let seed_gen = SeedGenerator::new(n_b).expect("valid N_b");
    let mut seeds_bit_identical = outcome.all_quantized();
    if seeds_bit_identical {
        let check = |net: &mut Sequential, q: &QuantizedSequential, xs: &[Tensor]| {
            let mut q = q.clone();
            xs.iter().all(|x| {
                seed_gen.seed_from_latent(&net.forward(x, false).into_vec())
                    == seed_gen.seed_from_latent(&q.forward(x).into_vec())
            })
        };
        let imu_q = models.imu_en_q.clone().expect("imu slot");
        let rf_q = models.rf_en_q.clone().expect("rf slot");
        seeds_bit_identical = check(&mut models.imu_en, &imu_q, &imu_inputs)
            && check(&mut models.rf_en, &rf_q, &rf_inputs);
    }

    // Timing copies: the calibrated slots when present, otherwise a plain
    // quantization of the trained encoder (same kernels, so the fallback
    // case still reports honest per-op timings — just not the gate pass).
    let quantized_of = |net: &Sequential, calib: &[Tensor]| {
        let mut tmp = net.clone();
        QuantizedSequential::from_sequential(&mut tmp, calib).expect("encoder-shaped net")
    };
    let mut q_imu = models
        .imu_en_q
        .clone()
        .unwrap_or_else(|| quantized_of(&models.imu_en, &imu_inputs));
    let mut q_rf = models
        .rf_en_q
        .clone()
        .unwrap_or_else(|| quantized_of(&models.rf_en, &rf_inputs));

    let model_bytes_f64 = models.imu_en.encode().len() + models.rf_en.encode().len();
    let model_bytes_int8 = q_imu.encode().len() + q_rf.encode().len();
    let int8_size_ratio = model_bytes_int8 as f64 / model_bytes_f64 as f64;

    // Per-op records: each conv stage and the dense head, f32 GEMM forward
    // vs the int8 kernel path, at the single-window inference shapes.
    let (mut cols, mut acc, mut out) = (Vec::new(), Vec::new(), Vec::new());
    let mut int8_records = Vec::new();
    {
        let mut conv_pair = |op, mut f32_layer: Conv1d, q: &wavekey_nn::quant::QuantizedConv1d, shape: Vec<usize>| {
            let x = input(shape.clone());
            let xq = input_q(shape[1] * shape[2]);
            let f32_ns = time_ns(|| {
                std::hint::black_box(f32_layer.forward(&x, false));
            });
            let int8_ns = time_ns(|| {
                q.forward(&xq, shape[2], &mut cols, &mut acc, &mut out);
                std::hint::black_box(&out);
            });
            int8_record(op, f32_ns, int8_ns, f32_ns / int8_ns)
        };
        int8_records.push(conv_pair(
            "imu_conv1_int8_3x8k7s2_l200",
            Conv1d::with_stride(3, 8, 7, 2, 0, 11),
            &q_imu.convs()[0].clone(),
            vec![1, 3, 200],
        ));
        int8_records.push(conv_pair(
            "imu_conv2_int8_8x16k5s2_l97",
            Conv1d::with_stride(8, 16, 5, 2, 0, 12),
            &q_imu.convs()[1].clone(),
            vec![1, 8, 97],
        ));
        int8_records.push(conv_pair(
            "rf_conv1_int8_3x8k9s4_l400",
            Conv1d::with_stride(3, 8, 9, 4, 0, 13),
            &q_rf.convs()[0].clone(),
            vec![1, 3, 400],
        ));
    }
    {
        let mut f32_dense = Dense::new(752, 12, 14);
        let x = input(vec![1, 752]);
        let xq = input_q(752);
        let q_dense = q_imu.dense().clone();
        let f32_ns = time_ns(|| {
            std::hint::black_box(f32_dense.forward(&x, false));
        });
        let int8_ns = time_ns(|| {
            std::hint::black_box(q_dense.forward(&xq, &mut acc));
        });
        int8_records.push(int8_record("enc_dense_int8_752x12", f32_ns, int8_ns, f32_ns / int8_ns));
    }

    // Whole-encoder forwards, the int8 gate's speedup: alternated rounds.
    let encoder_pair =
        |op, net: &mut Sequential, q: &mut QuantizedSequential, shape: Vec<usize>| {
            let x = input(shape);
            let rounds = alternate(
                ENCODER_ROUNDS,
                || {
                    std::hint::black_box(net.forward(&x, false));
                },
                || {
                    std::hint::black_box(q.forward(&x));
                },
            );
            let (f32_ns, int8_ns) = side_medians(&rounds);
            int8_record(op, f32_ns, int8_ns, median_ratio(&rounds))
        };
    let imu_encoder =
        encoder_pair("imu_encoder_int8_3x200", &mut models.imu_en, &mut q_imu, vec![1, 3, 200]);
    let rf_encoder =
        encoder_pair("rf_encoder_int8_3x400", &mut models.rf_en, &mut q_rf, vec![1, 3, 400]);
    let encoder_int8_speedup = imu_encoder.speedup.min(rf_encoder.speedup);
    int8_records.push(imu_encoder);
    int8_records.push(rf_encoder);

    // Stage benchmark: the whole sensing→seed pipeline (gesture synthesis,
    // IMU/RF sensing, encoder forwards, equiprobable quantization, Gray
    // coding) with and without quantized inference.
    let sense_to_seed = {
        let f32_config = SessionConfig::default();
        let mut int8_config = SessionConfig::default();
        int8_config.quantized_inference = true;
        let mut f32_session = Session::new(f32_config, models.clone(), 0x5e55);
        let mut int8_session = Session::new(int8_config, models.clone(), 0x5e55);
        let f32_ns = time_ns(|| {
            std::hint::black_box(f32_session.derive_seeds().expect("sensing pipeline"));
        });
        let int8_ns = time_ns(|| {
            std::hint::black_box(int8_session.derive_seeds().expect("sensing pipeline"));
        });
        int8_record("sense_to_seed_stage", f32_ns, int8_ns, f32_ns / int8_ns)
    };

    let wavekey_threads = wavekey_par::configured_threads().unwrap_or(0);
    println!(
        "encoder_int8_speedup {encoder_int8_speedup:.2}x  seeds_bit_identical \
         {seeds_bit_identical}  model bytes {model_bytes_f64} -> {model_bytes_int8} \
         ({:.1}%)",
        int8_size_ratio * 100.0
    );

    // Flat JSON array, written by hand (no serializer needed here).
    let mut json = String::from("[\n");
    for l in &layers {
        json.push_str(&format!(
            "  {{\"op\": \"{}\", \"reference_ns\": {:.1}, \"gemm_ns\": {:.1}, \"speedup\": {:.3}}},\n",
            l.op,
            l.reference_ns,
            l.gemm_ns,
            l.reference_ns / l.gemm_ns
        ));
    }
    for r in int8_records.iter().chain(std::iter::once(&sense_to_seed)) {
        json.push_str(&format!(
            "  {{\"op\": \"{}\", \"f32_ns\": {:.1}, \"int8_ns\": {:.1}, \"int8_speedup\": {:.3}}},\n",
            r.op,
            r.f32_ns,
            r.int8_ns,
            r.speedup
        ));
    }
    json.push_str(&format!(
        "  {{\"op\": \"int8_quantization_summary\", \"encoder_int8_speedup\": {:.3}, \
         \"seeds_bit_identical\": {}, \"imu_en_quantized\": {}, \"rf_en_quantized\": {}, \
         \"model_bytes_f64\": {}, \"model_bytes_int8\": {}, \"int8_size_ratio\": {:.4}, \
         \"wavekey_threads\": {}}},\n",
        encoder_int8_speedup,
        seeds_bit_identical,
        outcome.imu_quantized,
        outcome.rf_quantized,
        model_bytes_f64,
        model_bytes_int8,
        int8_size_ratio,
        wavekey_threads
    ));
    json.push_str(&format!(
        "  {{\"op\": \"train_autoencoders\", \"reference_s\": {:.3}, \"gemm_s\": {:.3}, \
         \"train_speedup\": {:.3}, \"loss_bit_identical\": {}}}\n]\n",
        reference_s, gemm_s, train_speedup, loss_bit_identical
    ));

    wavekey_bench::write_results(&out_path, &json);

    let checks = checks(
        loss_bit_identical,
        train_speedup,
        outcome.imu_quantized,
        outcome.rf_quantized,
        seeds_bit_identical,
        encoder_int8_speedup,
        int8_size_ratio,
    );
    gate::enforce("neural training-speed and int8 inference", &checks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavekey_bench::gate::failing;

    #[test]
    fn each_condition_fails_alone() {
        let t = true;
        assert!(failing(&checks(t, 2.5, t, t, t, 2.0, 0.30)).is_empty());
        let cases = [
            (checks(false, 2.5, t, t, t, 2.0, 0.30), "losses and models bit-identical"),
            (checks(t, 2.49, t, t, t, 2.0, 0.30), "training speedup (x)"),
            (checks(t, 2.5, false, t, t, 2.0, 0.30), "imu encoder calibrated"),
            (checks(t, 2.5, t, false, t, 2.0, 0.30), "rf encoder calibrated"),
            (checks(t, 2.5, t, t, false, 2.0, 0.30), "int8 seeds bit-identical"),
            (checks(t, 2.5, t, t, t, 1.99, 0.30), "int8 encoder speedup (x)"),
            (checks(t, 2.5, t, t, t, 2.0, 0.31), "int8 bytes / f64 bytes"),
        ];
        for (checks, name) in cases {
            assert_eq!(failing(&checks), [name]);
        }
    }
}
