//! The server-side data-processing pipeline of §IV-B-2.
//!
//! Given a raw [`RfidRecording`](crate::reader::RfidRecording), the
//! pipeline:
//!
//! 1. unwraps the phase stream (reported modulo 2π);
//! 2. detects the gesture onset from the variance rise of the unwrapped
//!    phase (mirroring the mobile side's pause-based synchronization);
//! 3. interpolates phase and magnitude onto a uniform 200 Hz grid starting
//!    at the onset (the reader's read slots arrive with jitter and
//!    occasional dropouts);
//! 4. denoises both streams with a Savitzky-Golay filter, which preserves
//!    the local extrema the RF-En autoencoder feeds on;
//! 5. standardizes each stream (zero mean, unit variance over the window)
//!    and assembles the paper's `2n×2` matrix `R` — 400 phase and 400
//!    magnitude samples for `n = 200` Hz.
//!
//! Standardization is a reproduction choice: the paper feeds "processed
//! phases and magnitudes" without specifying scaling, and per-window
//! standardization is what makes one trained RF-En work from 1 m to 9 m
//! (the magnitude's absolute level varies by ~28 dB over that range).

use crate::reader::RfidRecording;
use std::cell::RefCell;
use wavekey_dsp::{
    detect_motion_start, savgol_second_derivative_into, savgol_smooth_into, unwrap_phase_into,
    MotionDetectConfig,
};
use wavekey_math::resample_linear_into;

/// The processed RFID matrix `R`: standardized phase and magnitude
/// columns, 2·n rows total for an n Hz reader (the paper's 400×2).
#[derive(Debug, Clone, PartialEq)]
pub struct RfidMatrix {
    /// Standardized, unwrapped, denoised phase samples.
    pub phase: Vec<f64>,
    /// Standardized, denoised magnitude samples.
    pub magnitude: Vec<f64>,
    /// Gesture onset in recording time (s).
    pub start_time: f64,
}

impl RfidMatrix {
    /// Number of samples per column.
    pub fn len(&self) -> usize {
        self.phase.len()
    }

    /// `true` when the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.phase.is_empty()
    }

    /// Interleaves to the paper's column layout `[phase‖magnitude]`
    /// flattened row-major: `[(φ0, m0), (φ1, m1), …]`.
    pub fn flatten(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.phase.len() * 2);
        for (p, m) in self.phase.iter().zip(&self.magnitude) {
            out.push(*p);
            out.push(*m);
        }
        out
    }
}

/// Configuration of the server-side pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfidPipelineConfig {
    /// Interpolation rate (Hz); the paper's reader runs at 200 Hz.
    pub target_rate: f64,
    /// Output samples per column; the paper uses 400 (two seconds).
    pub samples: usize,
    /// Savitzky-Golay window (odd).
    pub savgol_window: usize,
    /// Savitzky-Golay polynomial order.
    pub savgol_order: usize,
    /// Onset detection parameters (tuned for 200 Hz phase data).
    pub detect: MotionDetectConfig,
    /// Second-stage onset refinement threshold in m/s² (see the IMU
    /// pipeline's `onset_refine_threshold`); both sides re-estimate the
    /// onset as the first crossing of the same absolute acceleration
    /// level, which aligns the two windows without clock
    /// synchronization. `0.0` disables refinement.
    pub onset_refine_threshold: f64,
}

impl Default for RfidPipelineConfig {
    fn default() -> Self {
        RfidPipelineConfig {
            target_rate: 200.0,
            samples: 400,
            savgol_window: 11,
            savgol_order: 3,
            detect: MotionDetectConfig {
                window: 20,
                baseline_len: 60,
                threshold_factor: 8.0,
                variance_floor: 1e-6,
            },
            onset_refine_threshold: 0.4,
        }
    }
}

/// Error from the server-side pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RfidPipelineError {
    /// Too few reads to process at all.
    TooFewReads,
    /// The variance detector never fired.
    MotionNotDetected,
    /// Not enough data after the onset to fill the window.
    RecordingTooShort,
}

impl std::fmt::Display for RfidPipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RfidPipelineError::TooFewReads => write!(f, "too few RFID reads"),
            RfidPipelineError::MotionNotDetected => write!(f, "gesture onset not detected"),
            RfidPipelineError::RecordingTooShort => {
                write!(f, "recording too short after gesture onset")
            }
        }
    }
}

impl std::error::Error for RfidPipelineError {}

/// Per-thread intermediate buffers reused across [`process_rfid`] calls.
///
/// The pipeline's p99 latency sat ~3× above its p50 purely from
/// allocator jitter: every call built half a dozen recording- or
/// grid-length temporaries. Routing the stages through these buffers
/// makes steady-state processing allocation-free except for the returned
/// [`RfidMatrix`] columns.
#[derive(Default)]
struct Scratch {
    unwrapped: Vec<f64>,
    refine_grid: Vec<f64>,
    d2: Vec<f64>,
    acc: Vec<f64>,
    phase_grid: Vec<f64>,
    mag_grid: Vec<f64>,
    phase_smooth: Vec<f64>,
    mag_smooth: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs the full §IV-B-2 server pipeline on a recording.
///
/// # Errors
///
/// See [`RfidPipelineError`].
pub fn process_rfid(
    recording: &RfidRecording,
    config: &RfidPipelineConfig,
) -> Result<RfidMatrix, RfidPipelineError> {
    SCRATCH.with(|cell| process_rfid_scratch(recording, config, &mut cell.borrow_mut()))
}

fn process_rfid_scratch(
    recording: &RfidRecording,
    config: &RfidPipelineConfig,
    scratch: &mut Scratch,
) -> Result<RfidMatrix, RfidPipelineError> {
    let Scratch {
        unwrapped,
        refine_grid,
        d2,
        acc,
        phase_grid,
        mag_grid,
        phase_smooth,
        mag_smooth,
    } = scratch;
    if recording.len() < config.detect.baseline_len + config.detect.window {
        return Err(RfidPipelineError::TooFewReads);
    }

    // 1. Unwrap.
    unwrap_phase_into(&recording.phase, unwrapped);

    // 2. Onset detection on the unwrapped phase, refined on the
    //    phase-derived acceleration-energy envelope (mirrors the IMU
    //    side's refinement so both windows align).
    let onset_idx = detect_motion_start(unwrapped, &config.detect)
        .ok_or(RfidPipelineError::MotionNotDetected)?;
    let mut t0 = recording.ts[onset_idx];
    if config.onset_refine_threshold > 0.0 {
        let grid_start = (t0 - 0.2).max(recording.ts[0]);
        let lookahead = ((1.0 * config.target_rate) as usize).max(64);
        if resample_linear_into(
            &recording.ts,
            unwrapped,
            grid_start,
            config.target_rate,
            lookahead,
            refine_grid,
        )
        .is_ok()
        {
            // Radial acceleration in m/s²: d = φ·λ/4π for the round-trip
            // backscatter phase, so d'' = φ''·λ/4π. The long fit window
            // keeps the differentiation noise (~0.06 m/s²) far below the
            // detection threshold.
            if savgol_second_derivative_into(refine_grid, 61, 3, 1.0 / config.target_rate, d2)
                .is_ok()
            {
                let scale = crate::wavelength() / (4.0 * std::f64::consts::PI);
                acc.clear();
                acc.extend(d2.iter().map(|v| (v * scale).abs()));
                t0 = wavekey_imu::pipeline::refine_onset(
                    acc,
                    grid_start,
                    config.target_rate,
                    config.onset_refine_threshold,
                    61,
                );
            }
        }
    }

    let window = (config.samples - 1) as f64 / config.target_rate;
    if t0 + window > *recording.ts.last().expect("non-empty") + 1e-9 {
        return Err(RfidPipelineError::RecordingTooShort);
    }

    // 3. Interpolate onto the uniform grid.
    resample_linear_into(
        &recording.ts,
        unwrapped,
        t0,
        config.target_rate,
        config.samples,
        phase_grid,
    )
    .expect("strictly increasing timestamps");
    resample_linear_into(
        &recording.ts,
        &recording.magnitude,
        t0,
        config.target_rate,
        config.samples,
        mag_grid,
    )
    .expect("strictly increasing timestamps");

    // 4. Savitzky-Golay denoising.
    savgol_smooth_into(phase_grid, config.savgol_window, config.savgol_order, phase_smooth)
        .expect("window fits 400 samples");
    savgol_smooth_into(mag_grid, config.savgol_window, config.savgol_order, mag_smooth)
        .expect("window fits 400 samples");

    // 5. Standardize.
    Ok(RfidMatrix {
        phase: standardize(phase_smooth),
        magnitude: standardize(mag_smooth),
        start_time: t0,
    })
}

/// Zero-mean unit-variance scaling with an epsilon guard.
fn standardize(xs: &[f64]) -> Vec<f64> {
    let mean = wavekey_math::mean(xs);
    let std = wavekey_math::std_dev(xs).max(1e-9);
    xs.iter().map(|x| (x - mean) / std).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::TagModel;
    use crate::environment::{Environment, UserPlacement};
    use crate::reader::{record_rfid, ReaderSpec};
    use wavekey_imu::gesture::{Gesture, GestureConfig, GestureGenerator, VolunteerId};
    use wavekey_math::Vec3;

    fn run(seed: u64, walkers: usize) -> (Gesture, RfidMatrix) {
        let gesture =
            GestureGenerator::new(VolunteerId(0), seed).generate(&GestureConfig::default());
        let env = Environment::room(1);
        let channel = env.channel(TagModel::Alien9640A, walkers, seed);
        let hand = UserPlacement::default().hand_position(&env);
        let rec = record_rfid(
            &gesture,
            hand,
            Vec3::new(0.03, 0.0, 0.0),
            &channel,
            &ReaderSpec::default(),
            seed,
        );
        let r = process_rfid(&rec, &RfidPipelineConfig::default()).expect("pipeline");
        (gesture, r)
    }

    #[test]
    fn produces_400_samples() {
        let (_, r) = run(1, 0);
        assert_eq!(r.len(), 400);
        assert_eq!(r.magnitude.len(), 400);
    }

    #[test]
    fn columns_are_standardized() {
        let (_, r) = run(2, 0);
        assert!(wavekey_math::mean(&r.phase).abs() < 1e-9);
        assert!((wavekey_math::std_dev(&r.phase) - 1.0).abs() < 1e-6);
        assert!(wavekey_math::mean(&r.magnitude).abs() < 1e-9);
        assert!((wavekey_math::std_dev(&r.magnitude) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn onset_near_pause_end() {
        let (gesture, r) = run(3, 0);
        assert!(
            (r.start_time - gesture.pause()).abs() < 0.25,
            "onset {} vs pause {}",
            r.start_time,
            gesture.pause()
        );
    }

    #[test]
    fn onset_agrees_with_imu_side() {
        // The whole point of the pause trick: the two modalities detect
        // nearly the same onset without clock synchronization.
        use wavekey_imu::pipeline::{process_imu, ImuPipelineConfig};
        use wavekey_imu::sensors::{sample_imu, DeviceModel};
        let seed = 4;
        let gesture =
            GestureGenerator::new(VolunteerId(0), seed).generate(&GestureConfig::default());
        let env = Environment::room(1);
        let channel = env.channel(TagModel::Alien9640A, 0, seed);
        let hand = UserPlacement::default().hand_position(&env);
        let rf_rec = record_rfid(
            &gesture,
            hand,
            Vec3::new(0.03, 0.0, 0.0),
            &channel,
            &ReaderSpec::default(),
            seed,
        );
        let imu_rec = sample_imu(&gesture, &DeviceModel::GalaxyWatch.spec(), seed);
        let r = process_rfid(&rf_rec, &RfidPipelineConfig::default()).unwrap();
        let a = process_imu(&imu_rec, &ImuPipelineConfig::default()).unwrap();
        assert!(
            (r.start_time - a.start_time).abs() < 0.15,
            "rfid onset {} vs imu onset {}",
            r.start_time,
            a.start_time
        );
    }

    #[test]
    fn phase_tracks_distance_to_antenna() {
        // The standardized phase must correlate with the tag–antenna
        // distance over the window (up to sign, since standardization may
        // flip nothing but multipath can).
        let seed = 5;
        let gesture =
            GestureGenerator::new(VolunteerId(0), seed).generate(&GestureConfig::default());
        let env = Environment::room(1);
        // Free-space channel to make the relation exact.
        let channel =
            crate::channel::BackscatterChannel::free_space(env.antenna, env.boresight, TagModel::Alien9640A);
        let hand = UserPlacement::default().hand_position(&env);
        let rec = record_rfid(
            &gesture,
            hand,
            Vec3::ZERO,
            &channel,
            &ReaderSpec { dropout: 0.0, ..Default::default() },
            seed,
        );
        let r = process_rfid(&rec, &RfidPipelineConfig::default()).unwrap();
        let base_shift = hand - gesture.position_at(0.0);
        let dist: Vec<f64> = (0..r.len())
            .map(|i| {
                let t = r.start_time + i as f64 / 200.0;
                (gesture.position_at(t) + base_shift).distance(env.antenna)
            })
            .collect();
        let corr = wavekey_math::pearson_correlation(&r.phase, &dist);
        assert!(corr.abs() > 0.95, "phase-distance correlation {corr}");
    }

    #[test]
    fn dynamic_condition_still_processes() {
        let (_, r) = run(6, 5);
        assert_eq!(r.len(), 400);
    }

    #[test]
    fn too_few_reads_error() {
        let rec = RfidRecording { ts: vec![0.0, 0.01], phase: vec![0.1, 0.2], magnitude: vec![1.0, 1.0] };
        assert_eq!(
            process_rfid(&rec, &RfidPipelineConfig::default()).unwrap_err(),
            RfidPipelineError::TooFewReads
        );
    }

    #[test]
    fn still_tag_no_onset() {
        // A gesture with no active phase: the tag never moves.
        let config = GestureConfig { active: 0.0, pause: 3.0, ..Default::default() };
        let gesture = GestureGenerator::new(VolunteerId(1), 7).generate(&config);
        let env = Environment::room(1);
        let channel = env.channel(TagModel::Alien9640A, 0, 7);
        let hand = UserPlacement::default().hand_position(&env);
        let rec = record_rfid(
            &gesture,
            hand,
            Vec3::ZERO,
            &channel,
            &ReaderSpec::default(),
            7,
        );
        let err = process_rfid(&rec, &RfidPipelineConfig::default()).unwrap_err();
        assert_eq!(err, RfidPipelineError::MotionNotDetected);
    }
}
