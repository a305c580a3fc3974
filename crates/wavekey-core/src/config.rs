//! The WaveKey hyper-parameters (§IV and §VI-C of the paper).

use crate::agreement::{AgreementConfig, Geometry};

/// All scheme-level hyper-parameters in one place.
///
/// Defaults reproduce the paper's chosen operating point — latent length
/// `l_f = 12` (§VI-C-1), `N_b = 9` quantization bins (§VI-C-2, Fig. 7),
/// deadline slack `τ = 120 ms` (§VI-C-3), decoder loss weight `λ = 0.4`
/// (Eq. (3)) — and the paper\'s nominal ECC correction rate
/// `η = t/n = 5/127 ≈ 0.04`. Note the paper *derives* η from its
/// hardware\'s benign seed-mismatch distribution (the 99th percentile);
/// the same procedure on this simulated substrate asks for more
/// correction than the BCH(127) family can give (see EXPERIMENTS.md),
/// so experiments report both this security-first operating point and
/// the procedure-derived `t = 15` point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveKeyConfig {
    /// Latent feature length `l_f` produced by both encoders.
    pub l_f: usize,
    /// Number of equiprobable quantization bins `N_b`.
    pub n_b: usize,
    /// BCH errors-per-block `t`; the correction rate is `η = t/127`.
    pub bch_t: usize,
    /// Deadline slack `τ` in seconds for the critical OT messages.
    pub tau: f64,
    /// Decoder loss weight `λ` in Eq. (3).
    pub lambda: f32,
    /// Desired key length `l_k` in bits.
    pub key_len_bits: usize,
    /// Gesture/data-acquisition window in seconds (the paper's 2 s).
    pub gesture_window: f64,
}

impl Default for WaveKeyConfig {
    fn default() -> Self {
        WaveKeyConfig {
            l_f: 12,
            n_b: 9,
            bch_t: 5,
            tau: 0.12,
            lambda: 0.4,
            key_len_bits: 256,
            gesture_window: 2.0,
        }
    }
}

impl WaveKeyConfig {
    /// Bits per quantized symbol: `⌈log₂ N_b⌉`.
    pub fn bits_per_symbol(&self) -> usize {
        wavekey_dsp::gray::bits_for(self.n_b)
    }

    /// Key-seed length `l_s = l_f · ⌈log₂ N_b⌉` (see DESIGN.md D2 for why
    /// the ceiling replaces the paper's exact `log₂`).
    pub fn l_s(&self) -> usize {
        self.l_f * self.bits_per_symbol()
    }

    /// Per-OT-sequence length `l_b = ⌈l_k / (2·l_s)⌉` (§IV-D-2), as the
    /// agreement's geometry sizes it.
    ///
    /// # Panics
    ///
    /// Panics when `l_f`, the key length or `bch_t` fails [`Self::validate`].
    pub fn l_b(&self) -> usize {
        let config = AgreementConfig {
            key_len_bits: self.key_len_bits,
            bch_t: self.bch_t,
            ..AgreementConfig::default()
        };
        Geometry::new(self.l_s(), &config).expect("valid WaveKey config").l_b
    }

    /// The ECC correction rate `η = t / 127`.
    pub fn eta(&self) -> f64 {
        self.bch_t as f64 / 127.0
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.l_f == 0 {
            return Err("l_f must be positive".into());
        }
        if self.n_b < 2 {
            return Err("N_b must be at least 2".into());
        }
        if self.bch_t == 0 || self.bch_t > 15 {
            return Err("bch_t must be in 1..=15".into());
        }
        if self.tau <= 0.0 {
            return Err("tau must be positive".into());
        }
        if self.key_len_bits == 0 {
            return Err("key length must be positive".into());
        }
        if self.gesture_window <= 0.0 {
            return Err("gesture window must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = WaveKeyConfig::default();
        assert_eq!(c.l_f, 12);
        assert_eq!(c.n_b, 9);
        assert_eq!(c.bits_per_symbol(), 4);
        assert_eq!(c.l_s(), 48);
        // 256-bit key: l_b = ⌈256 / 96⌉ = 3.
        assert_eq!(c.l_b(), 3);
        assert!((c.eta() - 5.0 / 127.0).abs() < 1e-9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn l_b_scales_with_key_length() {
        let mut c = WaveKeyConfig::default();
        for (lk, expected) in [(128, 2), (168, 2), (192, 2), (256, 3), (2048, 22)] {
            c.key_len_bits = lk;
            assert_eq!(c.l_b(), expected, "l_k = {lk}");
        }
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = WaveKeyConfig { l_f: 0, ..Default::default() };
        assert!(c.validate().is_err());
        c = WaveKeyConfig { n_b: 1, ..Default::default() };
        assert!(c.validate().is_err());
        c = WaveKeyConfig { bch_t: 0, ..Default::default() };
        assert!(c.validate().is_err());
        c = WaveKeyConfig { tau: 0.0, ..Default::default() };
        assert!(c.validate().is_err());
    }
}
