//! The mobile-side data-processing pipeline of §IV-B.
//!
//! Given a raw [`ImuRecording`], the pipeline:
//!
//! 1. detects the start of the gesture from the variance rise of the
//!    accelerometer magnitude (the user pauses before waving, §IV-B-1);
//! 2. interpolates gyroscope, accelerometer, and magnetometer onto a
//!    100 Hz grid starting at the detected onset;
//! 3. estimates the initial device pose from the quiet-period
//!    accelerometer (gravity) and magnetometer (north) via TRIAD;
//! 4. dead-reckons subsequent poses by integrating the gyroscope (no
//!    Kalman filter — drift over two seconds is negligible, §IV-B-2);
//! 5. rotates the specific-force samples into the world frame and removes
//!    gravity, producing the 200×3 linear-acceleration matrix `A`.

use crate::sensors::ImuRecording;
use crate::GRAVITY;
use std::cell::RefCell;
use wavekey_dsp::{detect_motion_start, MotionDetectConfig};
use wavekey_math::{resample_linear_into, Mat3, Quaternion, Vec3};

/// The linear-acceleration matrix `A` (paper notation): `samples × 3`
/// world-frame linear accelerations at 100 Hz.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelMatrix {
    rows: Vec<Vec3>,
    /// Gesture onset in recording time (s) — used by the session layer to
    /// enforce the `2 + τ` deadline.
    pub start_time: f64,
}

impl AccelMatrix {
    /// Creates a matrix from rows (used by attack models that synthesize
    /// `A` from estimated trajectories).
    pub fn from_rows(rows: Vec<Vec3>, start_time: f64) -> AccelMatrix {
        AccelMatrix { rows, start_time }
    }

    /// The acceleration rows.
    pub fn rows(&self) -> &[Vec3] {
        &self.rows
    }

    /// Number of rows (the paper's 200).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Flattens to `[x0, y0, z0, x1, …]` for tensor conversion.
    pub fn flatten(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows.len() * 3);
        for r in &self.rows {
            out.extend_from_slice(&r.to_array());
        }
        out
    }

    /// One axis as a column vector (0 = x, 1 = y, 2 = z).
    ///
    /// # Panics
    ///
    /// Panics if `axis > 2`.
    pub fn column(&self, axis: usize) -> Vec<f64> {
        assert!(axis < 3, "axis out of range");
        self.rows.iter().map(|r| r.to_array()[axis]).collect()
    }
}

/// Configuration of the mobile-side pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuPipelineConfig {
    /// Interpolation rate (Hz); the paper fixes 100 Hz.
    pub target_rate: f64,
    /// Number of output samples; the paper uses 200 (two seconds).
    pub samples: usize,
    /// Motion-onset detection parameters.
    pub detect: MotionDetectConfig,
    /// Length of the quiet window (s) used for the initial pose estimate.
    pub pose_window: f64,
    /// Second-stage onset refinement: re-estimate the onset as the first
    /// crossing of this absolute acceleration threshold (m/s²) by the
    /// smoothed linear-acceleration magnitude. The RFID side applies the
    /// same rule to its phase-derived radial acceleration, so both
    /// windows land on nearly the same physical instant without clock
    /// synchronization. `0.0` disables refinement.
    pub onset_refine_threshold: f64,
}

impl Default for ImuPipelineConfig {
    fn default() -> Self {
        ImuPipelineConfig {
            target_rate: 100.0,
            samples: 200,
            // The variance floor puts the trigger at a *physical* motion
            // level (~0.5 m/s² accelerations) comparable to where the
            // RFID phase detector fires (~millimeter displacements), so
            // the two sides latch onto the gesture onset within a few
            // tens of milliseconds of each other.
            detect: MotionDetectConfig {
                window: 10,
                baseline_len: 30,
                threshold_factor: 8.0,
                variance_floor: 0.09,
            },
            pose_window: 0.25,
            onset_refine_threshold: 0.4,
        }
    }
}

/// Refines a coarse onset to the first crossing of an *absolute
/// acceleration threshold* (m/s²) by the smoothed acceleration-magnitude
/// series `acc` (uniform grid at `rate` Hz starting at `grid_start`).
///
/// Both sides run this rule on the same physical quantity — the mobile on
/// its linear-acceleration magnitude, the server on the radial
/// acceleration derived from the phase (`φ\'\'·λ/4π`) — so the crossing
/// times coincide up to sensor noise and the radial-projection factor,
/// aligning the two 2-second windows to tens of milliseconds without any
/// clock synchronization. `smooth_window` (odd, in samples) sets the
/// moving-average length; use the same *duration* on both sides.
pub fn refine_onset(
    acc: &[f64],
    grid_start: f64,
    rate: f64,
    threshold: f64,
    smooth_window: usize,
) -> f64 {
    let half = smooth_window / 2;
    let smooth: Vec<f64> = (0..acc.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(acc.len());
            acc[lo..hi].iter().map(|v| v.abs()).sum::<f64>() / (hi - lo) as f64
        })
        .collect();
    match smooth.iter().position(|&v| v >= threshold) {
        Some(i) => grid_start + i as f64 / rate,
        None => grid_start,
    }
}

/// Error from the mobile-side pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The variance detector never fired — the user did not move.
    MotionNotDetected,
    /// Not enough data after the onset to fill the requested window.
    RecordingTooShort,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::MotionNotDetected => write!(f, "gesture onset not detected"),
            PipelineError::RecordingTooShort => {
                write!(f, "recording too short after gesture onset")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Per-thread intermediate buffers reused across [`process_imu`] calls,
/// mirroring the RFID pipeline's scratch: without them every call built
/// ~10 recording-length temporaries, and the allocator jitter dominated
/// the pipeline's tail latency.
#[derive(Default)]
struct Scratch {
    accel_mag: Vec<f64>,
    axis_vals: Vec<f64>,
    accel: [Vec<f64>; 3],
    gyro: [Vec<f64>; 3],
    quiet: Vec<usize>,
    all_rows: Vec<Vec3>,
    acc_mag_world: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs the full §IV-B mobile pipeline on a recording.
///
/// # Errors
///
/// Returns [`PipelineError::MotionNotDetected`] when the gesture onset is
/// not found and [`PipelineError::RecordingTooShort`] when fewer than
/// `config.samples` output samples fit after the onset.
pub fn process_imu(
    recording: &ImuRecording,
    config: &ImuPipelineConfig,
) -> Result<AccelMatrix, PipelineError> {
    SCRATCH.with(|cell| process_imu_scratch(recording, config, &mut cell.borrow_mut()))
}

fn process_imu_scratch(
    recording: &ImuRecording,
    config: &ImuPipelineConfig,
    scratch: &mut Scratch,
) -> Result<AccelMatrix, PipelineError> {
    let Scratch { accel_mag, axis_vals, accel, gyro, quiet, all_rows, acc_mag_world } = scratch;
    // 1. Onset detection on the accelerometer magnitude, followed by the
    //    energy-envelope refinement shared (by construction) with the
    //    RFID side.
    accel_mag.clear();
    accel_mag.extend(recording.accel.iter().map(|a| a.norm()));
    let onset_idx = detect_motion_start(accel_mag, &config.detect)
        .ok_or(PipelineError::MotionNotDetected)?;
    let t0_coarse = recording.ts[onset_idx];

    // Processing starts slightly *before* the coarse trigger so the
    // refinement (step 5) can move the window onset backward as well as
    // forward; the extra tail gives it a one-second lookahead.
    let lead = if config.onset_refine_threshold > 0.0 { 0.2 } else { 0.0 };
    let grid_t0 = (t0_coarse - lead).max(recording.ts[0]);
    let extra = if config.onset_refine_threshold > 0.0 {
        (1.2 * config.target_rate) as usize
    } else {
        0
    };
    let last_ts = *recording.ts.last().expect("non-empty recording");
    if grid_t0 + (config.samples - 1) as f64 / config.target_rate > last_ts + 1e-9 {
        return Err(PipelineError::RecordingTooShort);
    }
    let usable_samples = (((last_ts - grid_t0) * config.target_rate).floor() as usize + 1)
        .min(config.samples + extra);

    // 2. Interpolate each stream/axis onto the uniform grid.
    let mut grid_into = |series: &[Vec3], dst: &mut [Vec<f64>; 3]| {
        for (axis, out) in dst.iter_mut().enumerate() {
            axis_vals.clear();
            axis_vals.extend(series.iter().map(|v| v.to_array()[axis]));
            resample_linear_into(
                &recording.ts,
                axis_vals,
                grid_t0,
                config.target_rate,
                usable_samples,
                out,
            )
            .expect("recording timestamps are strictly increasing");
        }
    };
    grid_into(&recording.accel, accel);
    grid_into(&recording.gyro, gyro);
    let t0 = grid_t0;

    // 3. Initial pose and gyroscope bias from the quiet window
    //    immediately before the onset. Estimating the bias while the
    //    device is provably still (the user's deliberate pause) and
    //    subtracting it is what keeps the dead-reckoned pose accurate
    //    over long recordings — the dominant drift term is the constant
    //    bias, not the white noise.
    quiet.clear();
    quiet.extend(
        recording
            .ts
            .iter()
            .enumerate()
            .filter(|(_, &t)| t >= t0 - config.pose_window && t < t0 - 0.02)
            .map(|(i, _)| i),
    );
    let (accel_avg, mag_avg, gyro_bias) = if quiet.is_empty() {
        (recording.accel[onset_idx], recording.mag[onset_idx], Vec3::ZERO)
    } else {
        let n = quiet.len() as f64;
        let a = quiet.iter().fold(Vec3::ZERO, |s, &i| s + recording.accel[i]) / n;
        let m = quiet.iter().fold(Vec3::ZERO, |s, &i| s + recording.mag[i]) / n;
        let w = quiet.iter().fold(Vec3::ZERO, |s, &i| s + recording.gyro[i]) / n;
        (a, m, w)
    };
    let mut q = initial_pose(accel_avg, mag_avg);

    // 4. Integrate the gyroscope and rotate specific force to world over
    //    the whole (extended) grid.
    let dt = 1.0 / config.target_rate;
    let g_world = Vec3::new(0.0, 0.0, -GRAVITY);
    all_rows.clear();
    all_rows.reserve(usable_samples);
    for i in 0..usable_samples {
        let f_body = Vec3::new(accel[0][i], accel[1][i], accel[2][i]);
        let a_world = q.rotate(f_body) + g_world;
        all_rows.push(a_world);
        let omega = Vec3::new(gyro[0][i], gyro[1][i], gyro[2][i]) - gyro_bias;
        q = q.integrate(omega, dt);
    }

    // 5. Onset refinement on the *true* linear-acceleration magnitude —
    //    the same physical quantity the RFID side derives from its phase,
    //    so the two 2-second windows align without clock synchronization.
    let mut start_idx = ((t0_coarse - grid_t0) * config.target_rate).round() as usize;
    if config.onset_refine_threshold > 0.0 {
        let lookahead = ((1.0 * config.target_rate) as usize).min(all_rows.len());
        acc_mag_world.clear();
        acc_mag_world.extend(all_rows[..lookahead].iter().map(|a| a.norm()));
        let t0_refined = refine_onset(
            acc_mag_world,
            grid_t0,
            config.target_rate,
            config.onset_refine_threshold,
            31,
        );
        start_idx = ((t0_refined - grid_t0) * config.target_rate).round() as usize;
    }
    let start_idx = start_idx.min(all_rows.len().saturating_sub(1));
    if start_idx + config.samples > all_rows.len() {
        return Err(PipelineError::RecordingTooShort);
    }
    let rows = all_rows[start_idx..start_idx + config.samples].to_vec();
    let start_time = grid_t0 + start_idx as f64 / config.target_rate;

    Ok(AccelMatrix { rows, start_time })
}

/// TRIAD initial-pose estimate from a quiet-period accelerometer average
/// (gravity reference) and magnetometer average (north reference).
///
/// Only the horizontal component of the magnetic field is used, so the
/// (unknown) field inclination cancels out.
fn initial_pose(accel: Vec3, mag: Vec3) -> Quaternion {
    // Body-frame observations.
    let up_b = accel.normalized(); // specific force at rest = +g "up"
    let north_b = (mag - up_b * mag.dot(up_b)).normalized();
    let north_b = if north_b == Vec3::ZERO { orthogonal_to(up_b) } else { north_b };
    // The magnetometer's horizontal component points toward magnetic
    // north; the world-frame field is (cos I, 0, −sin I), so horizontal
    // world north is +x.
    let east_b = up_b.cross(north_b).normalized();

    // Rotation body→world maps (north_b, east_b, up_b) to (x, −y?, z)…
    // world frame: x = north, z = up, y = x × z? Use right-handed y = z × x.
    let north_w = Vec3::X;
    let up_w = Vec3::Z;
    let east_w = up_w.cross(north_w); // = +Y

    // R maps body axes to world: R * north_b = north_w etc. Build via
    // R = W * Bᵀ with column triads.
    let w = Mat3::from_columns(north_w, east_w, up_w);
    let b = Mat3::from_columns(north_b, east_b, up_b);
    let r = w * b.transpose();
    Quaternion::from_matrix(&r)
}

fn orthogonal_to(v: Vec3) -> Vec3 {
    let candidate = if v.x.abs() < 0.9 { Vec3::X } else { Vec3::Y };
    (candidate - v * candidate.dot(v)).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gesture::{Gesture, GestureConfig, GestureGenerator, VolunteerId};
    use crate::sensors::{sample_imu, DeviceModel};
    use wavekey_math::pearson_correlation;

    fn run_pipeline(seed: u64) -> (Gesture, AccelMatrix) {
        let gesture =
            GestureGenerator::new(VolunteerId(0), seed).generate(&GestureConfig::default());
        let rec = sample_imu(&gesture, &DeviceModel::GalaxyWatch.spec(), seed);
        let a = process_imu(&rec, &ImuPipelineConfig::default()).expect("pipeline");
        (gesture, a)
    }

    #[test]
    fn produces_200_rows() {
        let (_, a) = run_pipeline(1);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn onset_is_near_true_pause_end() {
        let (gesture, a) = run_pipeline(2);
        assert!(
            (a.start_time - gesture.pause()).abs() < 0.2,
            "onset {} vs pause end {}",
            a.start_time,
            gesture.pause()
        );
    }

    #[test]
    fn recovered_acceleration_tracks_ground_truth() {
        // The headline requirement: after calibration, the recovered
        // world-frame linear acceleration must correlate strongly with the
        // true trajectory acceleration.
        let (gesture, a) = run_pipeline(3);
        for axis in 0..3 {
            let recovered = a.column(axis);
            let truth: Vec<f64> = (0..200)
                .map(|i| {
                    let t = a.start_time + i as f64 / 100.0;
                    gesture.acceleration_at(t).to_array()[axis]
                })
                .collect();
            let corr = pearson_correlation(&recovered, &truth);
            assert!(corr > 0.9, "axis {axis}: correlation {corr}");
        }
    }

    #[test]
    fn gravity_is_removed() {
        // The residual between recovered and true acceleration must stay
        // well below g; otherwise the pose estimate is leaking gravity.
        let (gesture, a) = run_pipeline(4);
        let mean_err: f64 = (0..a.len())
            .map(|i| {
                let t = a.start_time + i as f64 / 100.0;
                (a.rows()[i] - gesture.acceleration_at(t)).norm()
            })
            .sum::<f64>()
            / a.len() as f64;
        assert!(mean_err < 2.5, "mean |a_rec − a_true| = {mean_err} m/s²");
    }

    #[test]
    fn too_quiet_recording_fails() {
        // A gesture with no active phase: variance never rises.
        let config = GestureConfig { active: 0.0, pause: 3.0, ..Default::default() };
        let gesture = GestureGenerator::new(VolunteerId(1), 5).generate(&config);
        let rec = sample_imu(&gesture, &DeviceModel::GalaxyWatch.spec(), 5);
        let err = process_imu(&rec, &ImuPipelineConfig::default()).unwrap_err();
        assert_eq!(err, PipelineError::MotionNotDetected);
    }

    #[test]
    fn short_recording_fails() {
        // Active gesture but recording ends right after onset.
        let config = GestureConfig { active: 0.8, ..Default::default() };
        let gesture = GestureGenerator::new(VolunteerId(1), 6).generate(&config);
        let rec = sample_imu(&gesture, &DeviceModel::GalaxyWatch.spec(), 6);
        let err = process_imu(&rec, &ImuPipelineConfig::default()).unwrap_err();
        assert_eq!(err, PipelineError::RecordingTooShort);
    }

    #[test]
    fn initial_pose_identity_when_aligned() {
        // Device axes aligned with world: accel reads +z·g, mag reads the
        // world field.
        let incl = 60f64.to_radians();
        let accel = Vec3::new(0.0, 0.0, GRAVITY);
        let mag = Vec3::new(incl.cos(), 0.0, -incl.sin()) * 50.0;
        let q = initial_pose(accel, mag);
        let v = Vec3::new(0.3, -0.4, 0.8);
        assert!((q.rotate(v) - v).norm() < 1e-6);
    }

    #[test]
    fn initial_pose_recovers_yaw() {
        // Device rotated 90° about z: body x points world −y? Verify the
        // estimated pose un-rotates a body vector correctly.
        let rot = Quaternion::from_axis_angle(Vec3::Z, std::f64::consts::FRAC_PI_2);
        let r_t = rot.conjugate();
        let incl = 60f64.to_radians();
        let field_world = Vec3::new(incl.cos(), 0.0, -incl.sin()) * 50.0;
        let accel_body = r_t.rotate(Vec3::new(0.0, 0.0, GRAVITY));
        let mag_body = r_t.rotate(field_world);
        let q = initial_pose(accel_body, mag_body);
        let v_body = Vec3::new(1.0, 0.0, 0.0);
        let expected = rot.rotate(v_body);
        assert!((q.rotate(v_body) - expected).norm() < 1e-6);
    }

    #[test]
    fn flatten_layout() {
        let m = AccelMatrix::from_rows(
            vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)],
            0.0,
        );
        assert_eq!(m.flatten(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.column(1), vec![2.0, 5.0]);
    }
}
