//! Binary BCH error correction and the code-offset reconciliation.
//!
//! §IV-D of the paper reconciles the two preliminary keys with an
//! unspecified error-correcting code whose correction rate is the
//! hyper-parameter `η` (≈ 0.04). We realize it as a binary BCH code over
//! GF(2⁷) — block length `n = 127`, `t` correctable errors per block,
//! `η = t/n` — wrapped in the standard *code-offset* (fuzzy commitment)
//! construction:
//!
//! * the mobile device picks a random codeword `c` per 127-bit block of
//!   its preliminary key `K_M` and sends the offset `K_M ⊕ c` (this is the
//!   paper's "Challenge = ECC(K_M) ‖ N");
//! * the server XORs its own `K_R` with the offset, obtaining `c ⊕ e`
//!   where `e` is the key disagreement, BCH-decodes to recover `c`, and
//!   XORs back to obtain `K_M` exactly — provided each block disagrees in
//!   at most `t` bits.
//!
//! The decoder is the classical chain: syndromes → Berlekamp-Massey →
//! Chien search (binary code, so no error-magnitude step).

use rand::rngs::StdRng;
use rand::Rng;
use std::sync::OnceLock;

/// GF(2⁷) field size minus one (the multiplicative order).
const GF_ORDER: usize = 127;
/// Primitive polynomial x⁷ + x³ + 1.
const PRIMITIVE_POLY: u16 = 0b1000_1001;

/// Precomputed GF(2⁷) exp/log tables.
#[derive(Debug, Clone)]
struct Gf128 {
    exp: [u8; 2 * GF_ORDER],
    log: [u8; GF_ORDER + 1],
}

impl Gf128 {
    fn new() -> Gf128 {
        let mut exp = [0u8; 2 * GF_ORDER];
        let mut log = [0u8; GF_ORDER + 1];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(GF_ORDER) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0b1000_0000 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        for i in GF_ORDER..2 * GF_ORDER {
            exp[i] = exp[i - GF_ORDER];
        }
        Gf128 { exp, log }
    }

    #[inline]
    fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    #[inline]
    fn inv(&self, a: u8) -> u8 {
        assert!(a != 0, "inverse of zero");
        self.exp[GF_ORDER - self.log[a as usize] as usize]
    }

    /// α^i for any non-negative i.
    #[inline]
    fn alpha_pow(&self, i: usize) -> u8 {
        self.exp[i % GF_ORDER]
    }
}

/// A binary BCH(127, k, t) code.
///
/// # Examples
///
/// ```
/// use wavekey_crypto::Bch;
/// let bch = Bch::new(5).unwrap();
/// assert_eq!(bch.n(), 127);
/// assert_eq!(bch.k(), 92);
/// assert!((bch.correction_rate() - 5.0 / 127.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Bch {
    gf: Gf128,
    t: usize,
    /// Generator polynomial coefficients over GF(2), lowest degree first.
    generator: Vec<bool>,
}

/// Error from BCH configuration or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BchError {
    /// `t` must be in `1..=15` for the (127, k) family implemented here.
    InvalidT,
    /// More errors than the code can correct.
    DecodeFailure,
    /// Input block has the wrong length.
    WrongLength,
}

impl std::fmt::Display for BchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BchError::InvalidT => write!(f, "t out of range for BCH(127, k)"),
            BchError::DecodeFailure => write!(f, "uncorrectable error pattern"),
            BchError::WrongLength => write!(f, "wrong block length"),
        }
    }
}

impl std::error::Error for BchError {}

impl Bch {
    /// Builds a BCH(127, k, t) code correcting `t` errors per block.
    ///
    /// # Errors
    ///
    /// Returns [`BchError::InvalidT`] when `t` is 0 or so large that the
    /// message length would vanish.
    pub fn new(t: usize) -> Result<Bch, BchError> {
        if t == 0 || t > 15 {
            return Err(BchError::InvalidT);
        }
        let gf = Gf128::new();

        // Generator = lcm of the minimal polynomials of α, α³, …, α^{2t−1}.
        let mut covered = [false; GF_ORDER];
        let mut generator = vec![true]; // the polynomial "1"
        for i in (1..2 * t).step_by(2) {
            if covered[i % GF_ORDER] {
                continue;
            }
            // Cyclotomic coset of i mod 127.
            let mut coset = Vec::new();
            let mut j = i % GF_ORDER;
            loop {
                if coset.contains(&j) {
                    break;
                }
                coset.push(j);
                covered[j] = true;
                j = (j * 2) % GF_ORDER;
            }
            // Minimal polynomial = Π (x + α^j) over GF(128); result is
            // binary.
            let mut min_poly: Vec<u8> = vec![1];
            for &j in &coset {
                let root = gf.alpha_pow(j);
                // Multiply min_poly by (x + root).
                let mut next = vec![0u8; min_poly.len() + 1];
                for (d, &c) in min_poly.iter().enumerate() {
                    next[d + 1] ^= c; // x * c
                    next[d] ^= gf.mul(c, root);
                }
                min_poly = next;
            }
            // All coefficients must be 0/1 now.
            debug_assert!(min_poly.iter().all(|&c| c <= 1));
            // generator *= min_poly (binary polynomial multiplication).
            let mut next = vec![false; generator.len() + min_poly.len() - 1];
            for (d1, &g1) in generator.iter().enumerate() {
                if !g1 {
                    continue;
                }
                for (d2, &m2) in min_poly.iter().enumerate() {
                    if m2 == 1 {
                        next[d1 + d2] ^= true;
                    }
                }
            }
            generator = next;
        }
        let k = GF_ORDER + 1 - generator.len();
        if k == 0 {
            return Err(BchError::InvalidT);
        }
        Ok(Bch { gf, t, generator })
    }

    /// Block length `n = 127`.
    pub fn n(&self) -> usize {
        GF_ORDER
    }

    /// Message length `k = n − deg(g)`.
    pub fn k(&self) -> usize {
        GF_ORDER + 1 - self.generator.len()
    }

    /// Correctable errors per block.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The correction rate `η = t / n` (the paper's hyper-parameter).
    pub fn correction_rate(&self) -> f64 {
        self.t as f64 / GF_ORDER as f64
    }

    /// Systematically encodes `k` message bits into an `n`-bit codeword.
    /// The message occupies the high positions `n−k..n`; parity fills
    /// `0..n−k`.
    ///
    /// # Errors
    ///
    /// Returns [`BchError::WrongLength`] when `message.len() != k`.
    pub fn encode(&self, message: &[bool]) -> Result<Vec<bool>, BchError> {
        if message.len() != self.k() {
            return Err(BchError::WrongLength);
        }
        let parity_len = self.generator.len() - 1;
        // Codeword = m(x)·x^{n−k} + (m(x)·x^{n−k} mod g(x)).
        let mut work = vec![false; GF_ORDER];
        work[parity_len..].copy_from_slice(message);
        // Polynomial mod: long division by the generator.
        let mut rem = work.clone();
        for d in (parity_len..GF_ORDER).rev() {
            if rem[d] {
                for (i, &g) in self.generator.iter().enumerate() {
                    if g {
                        rem[d - (self.generator.len() - 1) + i] ^= true;
                    }
                }
            }
        }
        let mut codeword = work;
        codeword[..parity_len].copy_from_slice(&rem[..parity_len]);
        Ok(codeword)
    }

    /// Decodes a (possibly corrupted) `n`-bit word to the nearest
    /// codeword.
    ///
    /// # Errors
    ///
    /// Returns [`BchError::WrongLength`] for wrong-size input and
    /// [`BchError::DecodeFailure`] when more than `t` errors are present
    /// (detected).
    pub fn decode(&self, received: &[bool]) -> Result<Vec<bool>, BchError> {
        if received.len() != GF_ORDER {
            return Err(BchError::WrongLength);
        }
        // Syndromes S_j = r(α^j), j = 1..2t.
        let mut syndromes = vec![0u8; 2 * self.t];
        let mut all_zero = true;
        for (jm1, s) in syndromes.iter_mut().enumerate() {
            let j = jm1 + 1;
            let mut acc = 0u8;
            for (i, &bit) in received.iter().enumerate() {
                if bit {
                    acc ^= self.gf.alpha_pow(i * j);
                }
            }
            *s = acc;
            if acc != 0 {
                all_zero = false;
            }
        }
        if all_zero {
            return Ok(received.to_vec());
        }

        // Berlekamp-Massey for the error-locator polynomial σ(x).
        let sigma = self.berlekamp_massey(&syndromes);
        let errors = sigma.len() - 1;
        if errors > self.t {
            return Err(BchError::DecodeFailure);
        }

        // Chien search: error at position i iff σ(α^{−i}) = 0.
        let mut corrected = received.to_vec();
        let mut found = 0usize;
        for i in 0..GF_ORDER {
            // α^{−i} = α^{127−i}.
            let x = self.gf.alpha_pow(GF_ORDER - i % GF_ORDER);
            let mut acc = 0u8;
            let mut xp = 1u8;
            for &c in &sigma {
                acc ^= self.gf.mul(c, xp);
                xp = self.gf.mul(xp, x);
            }
            if acc == 0 {
                corrected[i] ^= true;
                found += 1;
            }
        }
        if found != errors {
            return Err(BchError::DecodeFailure);
        }
        // Verify: all syndromes of the corrected word must vanish.
        for jm1 in 0..2 * self.t {
            let j = jm1 + 1;
            let mut acc = 0u8;
            for (i, &bit) in corrected.iter().enumerate() {
                if bit {
                    acc ^= self.gf.alpha_pow(i * j);
                }
            }
            if acc != 0 {
                return Err(BchError::DecodeFailure);
            }
        }
        Ok(corrected)
    }

    /// Extracts the systematic message bits from a codeword.
    ///
    /// # Panics
    ///
    /// Panics if `codeword.len() != n`.
    pub fn extract_message(&self, codeword: &[bool]) -> Vec<bool> {
        assert_eq!(codeword.len(), GF_ORDER, "wrong codeword length");
        codeword[self.generator.len() - 1..].to_vec()
    }

    fn berlekamp_massey(&self, syndromes: &[u8]) -> Vec<u8> {
        let mut c: Vec<u8> = vec![1];
        let mut b: Vec<u8> = vec![1];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut bb = 1u8;
        for n in 0..syndromes.len() {
            // Discrepancy.
            let mut d = syndromes[n];
            for i in 1..=l {
                if i < c.len() {
                    d ^= self.gf.mul(c[i], syndromes[n - i]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= n {
                let t_poly = c.clone();
                let coeff = self.gf.mul(d, self.gf.inv(bb));
                c = poly_sub_scaled(&self.gf, &c, &b, coeff, m);
                l = n + 1 - l;
                b = t_poly;
                bb = d;
                m = 1;
            } else {
                let coeff = self.gf.mul(d, self.gf.inv(bb));
                c = poly_sub_scaled(&self.gf, &c, &b, coeff, m);
                m += 1;
            }
        }
        c.truncate(l + 1);
        c
    }
}

/// `c(x) − coeff·x^shift·b(x)` over GF(128) (subtraction = XOR).
fn poly_sub_scaled(gf: &Gf128, c: &[u8], b: &[u8], coeff: u8, shift: usize) -> Vec<u8> {
    let mut out = c.to_vec();
    if out.len() < b.len() + shift {
        out.resize(b.len() + shift, 0);
    }
    for (i, &bi) in b.iter().enumerate() {
        out[i + shift] ^= gf.mul(coeff, bi);
    }
    out
}

/// The code-offset (fuzzy commitment) reconciliation built on [`Bch`].
#[derive(Debug, Clone)]
pub struct CodeOffset {
    bch: Bch,
}

impl CodeOffset {
    /// Wraps a BCH code.
    pub fn new(bch: Bch) -> CodeOffset {
        CodeOffset { bch }
    }

    /// The process-wide construction for `t`: [`Bch::new`] runs once per
    /// `t` in `1..=15` per process, on first use, behind a `OnceLock`,
    /// and every later call borrows that build. Protocol code reconciles
    /// through these, so a session builds no code.
    ///
    /// # Errors
    ///
    /// [`BchError::InvalidT`] as for [`Bch::new`].
    pub fn shared(t: usize) -> Result<&'static CodeOffset, BchError> {
        static CODES: [OnceLock<CodeOffset>; 15] = [const { OnceLock::new() }; 15];
        let slot = CODES.get(t.wrapping_sub(1)).ok_or(BchError::InvalidT)?;
        if let Some(code) = slot.get() {
            return Ok(code);
        }
        let bch = Bch::new(t)?;
        Ok(slot.get_or_init(|| CodeOffset::new(bch)))
    }

    /// The underlying code.
    pub fn bch(&self) -> &Bch {
        &self.bch
    }

    /// Correction rate η = t/n of the underlying code.
    pub fn correction_rate(&self) -> f64 {
        self.bch.correction_rate()
    }

    /// Produces the helper data ("ECC(K_M)") for `key`: per 127-bit block,
    /// `block ⊕ random codeword`. The key is zero-padded to a whole number
    /// of blocks internally.
    pub fn commit(&self, key: &[bool], rng: &mut StdRng) -> Vec<bool> {
        let n = self.bch.n();
        let blocks = key.len().div_ceil(n).max(1);
        let mut helper = Vec::with_capacity(blocks * n);
        for bi in 0..blocks {
            let mut block = vec![false; n];
            for (j, b) in block.iter_mut().enumerate() {
                let idx = bi * n + j;
                if idx < key.len() {
                    *b = key[idx];
                }
            }
            let message: Vec<bool> = (0..self.bch.k()).map(|_| rng.gen()).collect();
            let codeword = self.bch.encode(&message).expect("message length is k");
            helper.extend(block.iter().zip(&codeword).map(|(kb, cb)| kb ^ cb));
        }
        helper
    }

    /// Recovers the committed key from a *noisy* copy and the helper data.
    /// Returns the exact original key (truncated to `key_len`), or `None`
    /// if any block's disagreement exceeds the correction radius.
    pub fn reconcile(&self, noisy: &[bool], helper: &[bool], key_len: usize) -> Option<Vec<bool>> {
        let n = self.bch.n();
        if helper.len() % n != 0 || noisy.len() < key_len {
            return None;
        }
        let blocks = helper.len() / n;
        if key_len > blocks * n {
            return None;
        }
        let mut out = Vec::with_capacity(blocks * n);
        for bi in 0..blocks {
            let mut noisy_block = vec![false; n];
            for (j, b) in noisy_block.iter_mut().enumerate() {
                let idx = bi * n + j;
                if idx < noisy.len() {
                    *b = noisy[idx];
                }
            }
            let helper_block = &helper[bi * n..(bi + 1) * n];
            // noisy ⊕ helper = codeword ⊕ error.
            let received: Vec<bool> = noisy_block
                .iter()
                .zip(helper_block)
                .map(|(a, b)| a ^ b)
                .collect();
            let codeword = self.bch.decode(&received).ok()?;
            // key block = helper ⊕ codeword.
            for (h, c) in helper_block.iter().zip(&codeword) {
                out.push(h ^ c);
            }
        }
        out.truncate(key_len);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn code_dimensions() {
        // BCH(127, 120, 1), (127, 113, 2), (127, 106, 3), (127, 99, 4),
        // (127, 92, 5) — each minimal polynomial has degree 7.
        for (t, k) in [(1, 120), (2, 113), (3, 106), (4, 99), (5, 92)] {
            let bch = Bch::new(t).unwrap();
            assert_eq!(bch.k(), k, "t = {t}");
        }
    }

    #[test]
    fn invalid_t_rejected() {
        assert_eq!(Bch::new(0).unwrap_err(), BchError::InvalidT);
        assert_eq!(Bch::new(100).unwrap_err(), BchError::InvalidT);
    }

    #[test]
    fn roundtrip_no_errors() {
        let bch = Bch::new(5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let msg: Vec<bool> = (0..bch.k()).map(|_| rng.gen()).collect();
            let cw = bch.encode(&msg).unwrap();
            assert_eq!(cw.len(), 127);
            let decoded = bch.decode(&cw).unwrap();
            assert_eq!(decoded, cw);
            assert_eq!(bch.extract_message(&cw), msg);
        }
    }

    #[test]
    fn corrects_up_to_t_errors() {
        for t in [1usize, 3, 5] {
            let bch = Bch::new(t).unwrap();
            let mut rng = StdRng::seed_from_u64(42 + t as u64);
            for trial in 0..20 {
                let msg: Vec<bool> = (0..bch.k()).map(|_| rng.gen()).collect();
                let cw = bch.encode(&msg).unwrap();
                let mut corrupted = cw.clone();
                // Flip exactly t distinct positions.
                let mut positions = std::collections::HashSet::new();
                while positions.len() < t {
                    positions.insert(rng.gen_range(0..127usize));
                }
                for &p in &positions {
                    corrupted[p] = !corrupted[p];
                }
                let decoded = bch.decode(&corrupted).unwrap();
                assert_eq!(decoded, cw, "t = {t}, trial {trial}");
            }
        }
    }

    #[test]
    fn detects_too_many_errors_mostly() {
        // With t+2 or more random errors, decoding must either fail or
        // land on a *different* codeword — it must never return the
        // original with silent corruption of the comparison logic.
        let bch = Bch::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut failures = 0;
        for _ in 0..50 {
            let msg: Vec<bool> = (0..bch.k()).map(|_| rng.gen()).collect();
            let cw = bch.encode(&msg).unwrap();
            let mut corrupted = cw.clone();
            let mut positions = std::collections::HashSet::new();
            while positions.len() < 8 {
                positions.insert(rng.gen_range(0..127usize));
            }
            for &p in &positions {
                corrupted[p] = !corrupted[p];
            }
            match bch.decode(&corrupted) {
                Err(_) => failures += 1,
                Ok(decoded) => assert_ne!(decoded, cw, "8 errors silently corrected"),
            }
        }
        assert!(failures > 20, "only {failures}/50 detected as uncorrectable");
    }

    #[test]
    fn codewords_satisfy_generator_divisibility() {
        let bch = Bch::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let msg: Vec<bool> = (0..bch.k()).map(|_| rng.gen()).collect();
        let cw = bch.encode(&msg).unwrap();
        // All syndromes vanish for a valid codeword (checked internally by
        // decode, but assert explicitly via decode == identity).
        assert_eq!(bch.decode(&cw).unwrap(), cw);
    }

    #[test]
    fn code_offset_reconciles_noisy_keys() {
        let co = CodeOffset::new(Bch::new(5).unwrap());
        let mut rng = StdRng::seed_from_u64(11);
        let key: Vec<bool> = (0..256).map(|_| rng.gen()).collect();
        let helper = co.commit(&key, &mut rng);
        assert_eq!(helper.len(), 127 * 3); // 256 bits -> 3 blocks

        // Noisy copy: flip 4 bits per 127-bit block (≤ t = 5).
        let mut noisy = key.clone();
        for b in 0..2 {
            for j in 0..4 {
                let idx = b * 127 + j * 25;
                if idx < noisy.len() {
                    noisy[idx] = !noisy[idx];
                }
            }
        }
        let recovered = co.reconcile(&noisy, &helper, key.len()).expect("reconcile");
        assert_eq!(recovered, key);
    }

    #[test]
    fn code_offset_fails_beyond_radius() {
        let co = CodeOffset::new(Bch::new(2).unwrap());
        let mut rng = StdRng::seed_from_u64(13);
        let key: Vec<bool> = (0..127).map(|_| rng.gen()).collect();
        let helper = co.commit(&key, &mut rng);
        let mut noisy = key.clone();
        for j in 0..10 {
            noisy[j * 12] = !noisy[j * 12];
        }
        // 10 errors against t = 2: must fail or mis-recover, never silently
        // return the true key by luck of comparison.
        if let Some(recovered) = co.reconcile(&noisy, &helper, key.len()) {
            assert_ne!(recovered, key);
        }
    }

    #[test]
    fn code_offset_exact_key_roundtrips() {
        let co = CodeOffset::new(Bch::new(1).unwrap());
        let mut rng = StdRng::seed_from_u64(17);
        let key: Vec<bool> = (0..100).map(|_| rng.gen()).collect();
        let helper = co.commit(&key, &mut rng);
        let recovered = co.reconcile(&key, &helper, key.len()).unwrap();
        assert_eq!(recovered, key);
    }

    #[test]
    fn shared_codes_equal_fresh_builds() {
        // Every valid t: the shared code is one build per process, and it
        // is the code `Bch::new` makes — generator, k, and the encode and
        // decode of a random word with t errors in it.
        let mut rng = StdRng::seed_from_u64(19);
        for t in 1..=15 {
            let shared = CodeOffset::shared(t).unwrap().bch();
            assert!(std::ptr::eq(shared, CodeOffset::shared(t).unwrap().bch()), "t = {t}: one build");
            let fresh = Bch::new(t).unwrap();
            assert_eq!(shared.generator, fresh.generator, "t = {t}");
            assert_eq!((shared.k(), shared.t()), (fresh.k(), fresh.t()), "t = {t}");
            let message: Vec<bool> = (0..fresh.k()).map(|_| rng.gen()).collect();
            let codeword = fresh.encode(&message).unwrap();
            assert_eq!(shared.encode(&message).unwrap(), codeword, "t = {t}");
            let mut noisy = codeword.clone();
            for j in 0..t {
                noisy[j * 8] = !noisy[j * 8];
            }
            assert_eq!(shared.decode(&noisy), fresh.decode(&noisy), "t = {t}");
            assert_eq!(shared.decode(&noisy).unwrap(), codeword, "t = {t}");
        }
        for t in [0, 16] {
            assert_eq!(CodeOffset::shared(t).unwrap_err(), BchError::InvalidT);
        }
    }

    #[test]
    fn correction_rate_matches_eta() {
        let bch = Bch::new(5).unwrap();
        assert!((bch.correction_rate() - 0.0394).abs() < 0.001); // ≈ the paper's 0.04
    }
}
