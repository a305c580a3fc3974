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
//!
//! # Packed blocks
//!
//! A block is one `u128`: bit `i` is position `i` (the coefficient of
//! `x^i`), and bit 127 is clear. Each step is word operations over tables
//! [`Bch::new`] builds once per `t`:
//!
//! * encoding XORs the `k` parity rows `x^(n−k+i) mod g(x)`, each masked
//!   by message bit `i`;
//! * bit `b` of the syndrome `S_j` is the parity of `r & P[j][b]`, where
//!   bit `i` of the plane `P[j][b]` is bit `b` of `α^(ij)`;
//! * the Chien search is bit-sliced over the 127 positions: each bit of
//!   each locator coefficient selects seven planes, their XOR holds the
//!   seven bits of `σ(α^(−i))` at bit `i`, for every `i` at once, and the
//!   error word is where all seven are zero.
//!
//! The decoder's work does not depend on the word it decodes:
//! Berlekamp–Massey runs exactly `2t` iterations over fixed arrays with
//! masked updates, a GF(2⁷) product masks a zero factor instead of
//! testing for it, and decoding returns one verdict at its end. What
//! still varies with the data is the address of each log/exp table read,
//! which is indexed by syndrome-derived field elements.

use rand::rngs::StdRng;
use rand::Rng;
use std::sync::OnceLock;

/// GF(2⁷) field size minus one (the multiplicative order), which is also
/// the block length `n`.
const GF_ORDER: usize = 127;
/// Primitive polynomial x⁷ + x³ + 1.
const PRIMITIVE_POLY: u16 = 0b1000_1001;
/// The largest `t` of the (127, k) family implemented here.
const MAX_T: usize = 15;
/// Coefficients of the Berlekamp–Massey polynomials: degrees `0..=2t`.
const POLY_LEN: usize = 2 * MAX_T + 1;
/// The 127 positions of a block.
const BLOCK_MASK: u128 = u128::MAX >> 1;

/// All ones when bit 0 of `bit` is set, else zero.
#[inline]
fn mask(bit: u128) -> u128 {
    0u128.wrapping_sub(bit & 1)
}

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

    /// `a · b`. A zero factor masks the table read to zero rather than
    /// skipping it (`log[0]` is a valid index).
    #[inline]
    fn mul(&self, a: u8, b: u8) -> u8 {
        let product = self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize];
        product & 0u8.wrapping_sub(u8::from(a != 0) & u8::from(b != 0))
    }

    #[inline]
    fn inv(&self, a: u8) -> u8 {
        debug_assert!(a != 0, "inverse of zero");
        self.exp[GF_ORDER - self.log[a as usize] as usize]
    }

    /// α^i for any non-negative i.
    #[inline]
    fn alpha_pow(&self, i: usize) -> u8 {
        self.exp[i % GF_ORDER]
    }
}

/// Ors the seven bits of `value` into bit `i` of seven planes.
fn scatter(planes: &mut [u128; 7], value: u8, i: usize) {
    for (c, plane) in planes.iter_mut().enumerate() {
        *plane |= u128::from(value >> c & 1) << i;
    }
}

/// A binary BCH(127, k, t) code over packed blocks.
///
/// # Examples
///
/// ```
/// use wavekey_crypto::Bch;
/// let bch = Bch::new(5).unwrap();
/// assert_eq!(bch.n(), 127);
/// assert_eq!(bch.k(), 92);
/// assert!((bch.correction_rate() - 5.0 / 127.0).abs() < 1e-12);
/// let codeword = bch.encode(0b1011).unwrap();
/// assert_eq!(bch.decode(codeword ^ 1 << 40 ^ 1 << 3), Ok(codeword));
/// ```
#[derive(Debug, Clone)]
pub struct Bch {
    gf: Gf128,
    t: usize,
    k: usize,
    /// Row `i` is `x^(n−k+i) mod g(x)`, the parity of message bit `i`.
    /// Row 0 is the generator `g(x)` less its leading term.
    parity_rows: Vec<u128>,
    /// Entry `j − 1` (j = 1..=2t) holds the planes `P[j][b]`: bit `i` of
    /// `P[j][b]` is bit `b` of `α^(ij)`.
    syndrome_planes: Vec<[u128; 7]>,
    /// Entry `d − 1` (d = 1..=t) holds the planes `Q[d][b][c]`: bit `i` of
    /// `Q[d][b][c]` is bit `c` of `α^(b − id)`.
    chien_planes: Vec<[[u128; 7]; 7]>,
}

/// Error from BCH configuration or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BchError {
    /// `t` must be in `1..=15` for the (127, k) family implemented here.
    InvalidT,
    /// More errors than the code can correct.
    DecodeFailure,
    /// A message with bits at or above `k`, or a word with bit 127 set.
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
    /// Builds a BCH(127, k, t) code correcting `t` errors per block, with
    /// its parity rows, syndrome planes and Chien planes.
    ///
    /// # Errors
    ///
    /// Returns [`BchError::InvalidT`] when `t` is 0 or so large that the
    /// message length would vanish.
    pub fn new(t: usize) -> Result<Bch, BchError> {
        if t == 0 || t > MAX_T {
            return Err(BchError::InvalidT);
        }
        let gf = Gf128::new();

        // Generator = lcm of the minimal polynomials of α, α³, …, α^{2t−1};
        // bit d is the coefficient of x^d.
        let mut covered = [false; GF_ORDER];
        let mut generator = 1u128; // the polynomial "1"
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
            // generator *= min_poly (carry-less multiplication).
            generator = min_poly
                .iter()
                .enumerate()
                .filter(|&(_, &m)| m == 1)
                .fold(0, |product, (d, _)| product ^ generator << d);
        }
        let parity_len = (u128::BITS - 1 - generator.leading_zeros()) as usize; // deg g
        let k = GF_ORDER - parity_len;
        if k == 0 {
            return Err(BchError::InvalidT);
        }

        // x^(n−k) mod g = g − x^(n−k); each next row is x · the last, reduced.
        let mut row = generator ^ 1 << parity_len;
        let parity_rows = (0..k)
            .map(|_| {
                let this = row;
                row <<= 1;
                row ^= generator & mask(row >> parity_len);
                this
            })
            .collect();
        let syndrome_planes = (1..=2 * t)
            .map(|j| {
                let mut planes = [0u128; 7];
                for i in 0..GF_ORDER {
                    scatter(&mut planes, gf.alpha_pow(i * j), i);
                }
                planes
            })
            .collect();
        let chien_planes = (1..=t)
            .map(|d| {
                let mut planes = [[0u128; 7]; 7];
                for i in 0..GF_ORDER {
                    scatter(&mut planes[0], gf.alpha_pow(GF_ORDER - i * d % GF_ORDER), i);
                }
                // Q[d][b + 1] = α · Q[d][b], plane by plane: α⁷ = α³ + 1.
                for b in 1..7 {
                    let q = planes[b - 1];
                    planes[b] = [q[6], q[0], q[1], q[2] ^ q[6], q[3], q[4], q[5]];
                }
                planes
            })
            .collect();
        Ok(Bch { gf, t, k, parity_rows, syndrome_planes, chien_planes })
    }

    /// Block length `n = 127`.
    pub fn n(&self) -> usize {
        GF_ORDER
    }

    /// Message length `k = n − deg(g)`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Correctable errors per block.
    pub fn t(&self) -> usize {
        self.t
    }

    /// The correction rate `η = t / n` (the paper's hyper-parameter).
    pub fn correction_rate(&self) -> f64 {
        self.t as f64 / GF_ORDER as f64
    }

    /// Systematically encodes the `k` message bits of `message` (bit `i`
    /// is message bit `i`) into a codeword: the message occupies the high
    /// positions `n−k..n`, and its parity fills `0..n−k`.
    ///
    /// # Errors
    ///
    /// Returns [`BchError::WrongLength`] when `message` has a bit at or
    /// above `k`.
    pub fn encode(&self, message: u128) -> Result<u128, BchError> {
        if message >> self.k != 0 {
            return Err(BchError::WrongLength);
        }
        let mut parity = 0;
        for (i, row) in self.parity_rows.iter().enumerate() {
            parity ^= row & mask(message >> i);
        }
        Ok((message << (GF_ORDER - self.k)) | parity)
    }

    /// Decodes a (possibly corrupted) block to the nearest codeword. The
    /// work is the same for every word: all syndromes, `2t`
    /// Berlekamp–Massey iterations, the Chien search and the check of the
    /// corrected word, then one verdict.
    ///
    /// # Errors
    ///
    /// Returns [`BchError::WrongLength`] for a word with bit 127 set and
    /// [`BchError::DecodeFailure`] when more than `t` errors are present
    /// (detected).
    pub fn decode(&self, received: u128) -> Result<u128, BchError> {
        if received > BLOCK_MASK {
            return Err(BchError::WrongLength);
        }
        let (sigma, errors) = self.berlekamp_massey(&self.syndromes(received));
        let error_word = self.chien(&sigma);
        let corrected = received ^ error_word;
        let residue = self.syndromes(corrected).iter().fold(0, |acc, &s| acc | s);
        // A locator of length at most t, exactly that many roots, and a
        // corrected word whose syndromes vanish.
        if (errors <= self.t) & (error_word.count_ones() as usize == errors) & (residue == 0) {
            Ok(corrected)
        } else {
            Err(BchError::DecodeFailure)
        }
    }

    /// The syndromes `S_j = r(α^j)`, j = 1..=2t, at index `j − 1`.
    fn syndromes(&self, word: u128) -> [u8; 2 * MAX_T] {
        let mut out = [0u8; 2 * MAX_T];
        for (s, planes) in out.iter_mut().zip(&self.syndrome_planes) {
            for (b, plane) in planes.iter().enumerate() {
                *s |= (((word & plane).count_ones() & 1) as u8) << b;
            }
        }
        out
    }

    /// Berlekamp–Massey for the error locator `σ(x)` (lowest degree
    /// first) and its length `L`, in exactly `2t` iterations. Each
    /// discrepancy decides its update through masks: a zero discrepancy
    /// scales the correction to zero, and `L` grows only under a mask.
    /// `shifted` is the correction polynomial times `x^m`, `m` the
    /// iterations since `L` last grew; no polynomial here passes degree
    /// `2t`.
    fn berlekamp_massey(&self, syndromes: &[u8; 2 * MAX_T]) -> ([u8; POLY_LEN], usize) {
        let gf = &self.gf;
        let top = 2 * self.t;
        let mut sigma = [0u8; POLY_LEN];
        sigma[0] = 1;
        let mut shifted = [0u8; POLY_LEN];
        shifted[1] = 1;
        let mut l = 0usize;
        let mut last = 1u8; // the discrepancy when L last grew
        for n in 0..top {
            let d = (0..=n).fold(0, |d, i| d ^ gf.mul(sigma[i], syndromes[n - i]));
            let grow = (d != 0) & (2 * l <= n);
            let grow8 = 0u8.wrapping_sub(grow.into());
            let grow_len = 0usize.wrapping_sub(grow.into());
            let coeff = gf.mul(d, gf.inv(last));
            let mut next = [0u8; POLY_LEN];
            for i in 0..top {
                next[i + 1] = (sigma[i] & grow8) | (shifted[i] & !grow8);
            }
            for i in 0..=top {
                sigma[i] ^= gf.mul(coeff, shifted[i]);
            }
            shifted = next;
            l ^= (l ^ (n + 1 - l)) & grow_len;
            last ^= (last ^ d) & grow8;
        }
        (sigma, l)
    }

    /// The error word: bit `i` set where `σ(α^(−i)) = 0`. Plane `c` of
    /// `value` holds bit `c` of `σ(α^(−i))` at bit `i`: `σ_0`'s bits at
    /// every position, plus the planes each set bit of each `σ_d` selects.
    fn chien(&self, sigma: &[u8; POLY_LEN]) -> u128 {
        let mut value = [0u128; 7];
        for (c, plane) in value.iter_mut().enumerate() {
            *plane = mask(u128::from(sigma[0] >> c));
        }
        for (planes, &coeff) in self.chien_planes.iter().zip(&sigma[1..]) {
            for (b, by_b) in planes.iter().enumerate() {
                let selected = mask(u128::from(coeff >> b));
                for (plane, q) in value.iter_mut().zip(by_b) {
                    *plane ^= q & selected;
                }
            }
        }
        !value.iter().fold(0, |acc, plane| acc | plane) & BLOCK_MASK
    }
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
    /// and every later call borrows that build, tables included. Protocol
    /// code reconciles through these, so a session builds no code.
    ///
    /// # Errors
    ///
    /// [`BchError::InvalidT`] as for [`Bch::new`].
    pub fn shared(t: usize) -> Result<&'static CodeOffset, BchError> {
        static CODES: [OnceLock<CodeOffset>; MAX_T] = [const { OnceLock::new() }; MAX_T];
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

    /// Produces the helper data ("ECC(K_M)") for the key's blocks: each
    /// block XOR a random codeword, whose `k` message bits are drawn one
    /// `rng.gen::<bool>()` each, block by block.
    ///
    /// # Panics
    ///
    /// Panics if a block has bit 127 set.
    pub fn commit(&self, key: &[u128], rng: &mut StdRng) -> Vec<u128> {
        let k = self.bch.k;
        key.iter()
            .map(|&block| {
                assert!(block <= BLOCK_MASK, "a block holds 127 bits");
                let message = (0..k).fold(0, |m, i| m | u128::from(rng.gen::<bool>()) << i);
                block ^ self.bch.encode(message).expect("message has k bits")
            })
            .collect()
    }

    /// Recovers the committed key blocks from a *noisy* copy and the
    /// helper data. Returns the exact original blocks, or `None` if the
    /// lengths differ or any block's disagreement exceeds the correction
    /// radius. Every block is decoded before the verdict.
    pub fn reconcile(&self, noisy: &[u128], helper: &[u128]) -> Option<Vec<u128>> {
        if noisy.len() != helper.len() {
            return None;
        }
        let mut all_decoded = true;
        let key = noisy
            .iter()
            .zip(helper)
            .map(|(&noisy, &helper)| {
                // noisy ⊕ helper = codeword ⊕ error; key = helper ⊕ codeword.
                let codeword = self.bch.decode(noisy ^ helper);
                all_decoded &= codeword.is_ok();
                helper ^ codeword.unwrap_or(0)
            })
            .collect();
        all_decoded.then_some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The generator polynomial `g(x)`: bit `d` is the coefficient of `x^d`.
    fn generator(bch: &Bch) -> u128 {
        bch.parity_rows[0] | 1 << (GF_ORDER - bch.k)
    }

    /// The low `n` bits of `word`, bit 0 first.
    fn bools(word: u128, n: usize) -> Vec<bool> {
        (0..n).map(|i| word >> i & 1 == 1).collect()
    }

    /// Inverts [`bools`].
    fn word(bits: &[bool]) -> u128 {
        bits.iter().enumerate().fold(0, |w, (i, &b)| w | u128::from(b) << i)
    }

    fn random_word(rng: &mut StdRng) -> u128 {
        (u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>())) & BLOCK_MASK
    }

    /// `count` distinct positions below 127.
    fn flips(rng: &mut StdRng, count: usize) -> u128 {
        let mut flips = 0u128;
        while (flips.count_ones() as usize) < count {
            flips |= 1 << rng.gen_range(0..GF_ORDER);
        }
        flips
    }

    /// The `Vec<bool>` codec the packed one replaced, kept as its oracle:
    /// long division by the generator, syndromes and a Chien search by
    /// field arithmetic per position, and a Berlekamp–Massey that exits
    /// early. Its product keeps the zero test the packed one masks.
    struct Reference {
        gf: Gf128,
        t: usize,
        generator: Vec<bool>,
    }

    impl Reference {
        fn new(bch: &Bch) -> Reference {
            let generator = bools(generator(bch), GF_ORDER - bch.k + 1);
            Reference { gf: bch.gf.clone(), t: bch.t, generator }
        }

        fn mul(&self, a: u8, b: u8) -> u8 {
            if a == 0 || b == 0 {
                0
            } else {
                self.gf.exp[self.gf.log[a as usize] as usize + self.gf.log[b as usize] as usize]
            }
        }

        fn k(&self) -> usize {
            GF_ORDER + 1 - self.generator.len()
        }

        fn encode(&self, message: &[bool]) -> Result<Vec<bool>, BchError> {
            if message.len() != self.k() {
                return Err(BchError::WrongLength);
            }
            let parity_len = self.generator.len() - 1;
            // Codeword = m(x)·x^{n−k} + (m(x)·x^{n−k} mod g(x)).
            let mut work = vec![false; GF_ORDER];
            work[parity_len..].copy_from_slice(message);
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

        fn syndrome(&self, word: &[bool], j: usize) -> u8 {
            word.iter()
                .enumerate()
                .filter(|&(_, &bit)| bit)
                .fold(0, |acc, (i, _)| acc ^ self.gf.alpha_pow(i * j))
        }

        fn decode(&self, received: &[bool]) -> Result<Vec<bool>, BchError> {
            if received.len() != GF_ORDER {
                return Err(BchError::WrongLength);
            }
            let syndromes: Vec<u8> = (1..=2 * self.t).map(|j| self.syndrome(received, j)).collect();
            if syndromes.iter().all(|&s| s == 0) {
                return Ok(received.to_vec());
            }
            let sigma = self.berlekamp_massey(&syndromes);
            let errors = sigma.len() - 1;
            if errors > self.t {
                return Err(BchError::DecodeFailure);
            }
            // Chien search: error at position i iff σ(α^{−i}) = 0.
            let mut corrected = received.to_vec();
            let mut found = 0usize;
            for (i, bit) in corrected.iter_mut().enumerate() {
                let x = self.gf.alpha_pow(GF_ORDER - i % GF_ORDER);
                let mut acc = 0u8;
                let mut xp = 1u8;
                for &c in &sigma {
                    acc ^= self.mul(c, xp);
                    xp = self.mul(xp, x);
                }
                if acc == 0 {
                    *bit ^= true;
                    found += 1;
                }
            }
            if found != errors || (1..=2 * self.t).any(|j| self.syndrome(&corrected, j) != 0) {
                return Err(BchError::DecodeFailure);
            }
            Ok(corrected)
        }

        fn berlekamp_massey(&self, syndromes: &[u8]) -> Vec<u8> {
            let mut c: Vec<u8> = vec![1];
            let mut b: Vec<u8> = vec![1];
            let mut l = 0usize;
            let mut m = 1usize;
            let mut bb = 1u8;
            for n in 0..syndromes.len() {
                let mut d = syndromes[n];
                for i in 1..=l {
                    if i < c.len() {
                        d ^= self.mul(c[i], syndromes[n - i]);
                    }
                }
                if d == 0 {
                    m += 1;
                } else if 2 * l <= n {
                    let t_poly = c.clone();
                    let coeff = self.mul(d, self.gf.inv(bb));
                    c = self.sub_scaled(&c, &b, coeff, m);
                    l = n + 1 - l;
                    b = t_poly;
                    bb = d;
                    m = 1;
                } else {
                    let coeff = self.mul(d, self.gf.inv(bb));
                    c = self.sub_scaled(&c, &b, coeff, m);
                    m += 1;
                }
            }
            c.truncate(l + 1);
            c
        }

        /// `c(x) − coeff·x^shift·b(x)` over GF(128) (subtraction = XOR).
        fn sub_scaled(&self, c: &[u8], b: &[u8], coeff: u8, shift: usize) -> Vec<u8> {
            let mut out = c.to_vec();
            if out.len() < b.len() + shift {
                out.resize(b.len() + shift, 0);
            }
            for (i, &bi) in b.iter().enumerate() {
                out[i + shift] ^= self.mul(coeff, bi);
            }
            out
        }
    }

    /// The packed decode of `received` and the reference's, as `bool`s.
    fn assert_same_decode(bch: &Bch, oracle: &Reference, received: u128, what: &str) {
        let packed = bch.decode(received).map(|w| bools(w, GF_ORDER));
        assert_eq!(packed, oracle.decode(&bools(received, GF_ORDER)), "t = {}: {what}", bch.t);
    }

    #[test]
    fn packed_codec_matches_the_reference_at_every_t() {
        for t in 1..=MAX_T {
            let bch = Bch::new(t).unwrap();
            let oracle = Reference::new(&bch);
            assert_eq!(oracle.k(), bch.k(), "t = {t}");
            for fixed in [0, BLOCK_MASK] {
                assert_same_decode(&bch, &oracle, fixed, "fixed word");
            }
            for i in 0..GF_ORDER {
                assert_same_decode(&bch, &oracle, 1 << i, "single bit");
            }
            rand::check::cases(&format!("packed_codec_matches_the_reference_t{t}"), 16, |rng| {
                let message = (0..bch.k()).fold(0, |m, i| m | u128::from(rng.gen::<bool>()) << i);
                let codeword = bch.encode(message).unwrap();
                assert_eq!(
                    Ok(bools(codeword, GF_ORDER)),
                    oracle.encode(&bools(message, bch.k())),
                    "t = {t}: encode"
                );
                for errors in 0..=2 * t + 3 {
                    let received = codeword ^ flips(rng, errors);
                    assert_same_decode(&bch, &oracle, received, &format!("{errors} errors"));
                }
                assert_same_decode(&bch, &oracle, random_word(rng), "uniform word");
            });
        }
    }

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
    fn out_of_range_bits_are_wrong_length() {
        let bch = Bch::new(5).unwrap();
        assert_eq!(bch.encode(1 << bch.k()), Err(BchError::WrongLength));
        assert_eq!(bch.decode(1 << 127), Err(BchError::WrongLength));
    }

    #[test]
    fn roundtrip_no_errors() {
        let bch = Bch::new(5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let msg = random_word(&mut rng) >> (GF_ORDER - bch.k());
            let cw = bch.encode(msg).unwrap();
            assert!(cw <= BLOCK_MASK);
            let decoded = bch.decode(cw).unwrap();
            assert_eq!(decoded, cw);
            // Systematic: the message sits at positions n−k..n.
            assert_eq!(cw >> (GF_ORDER - bch.k()), msg);
        }
    }

    #[test]
    fn corrects_up_to_t_errors() {
        for t in [1usize, 3, 5] {
            let bch = Bch::new(t).unwrap();
            let mut rng = StdRng::seed_from_u64(42 + t as u64);
            for trial in 0..20 {
                let msg = random_word(&mut rng) >> (GF_ORDER - bch.k());
                let cw = bch.encode(msg).unwrap();
                // Flip exactly t distinct positions.
                let decoded = bch.decode(cw ^ flips(&mut rng, t)).unwrap();
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
            let msg = random_word(&mut rng) >> (GF_ORDER - bch.k());
            let cw = bch.encode(msg).unwrap();
            match bch.decode(cw ^ flips(&mut rng, 8)) {
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
        let cw = bch.encode(random_word(&mut rng) >> (GF_ORDER - bch.k())).unwrap();
        // All syndromes vanish for a valid codeword, and g(x) divides it.
        assert_eq!(bch.syndromes(cw), [0; 2 * MAX_T]);
        assert_eq!(bch.decode(cw).unwrap(), cw);
        let deg = GF_ORDER - bch.k();
        let mut rem = cw;
        for d in (deg..GF_ORDER).rev() {
            rem ^= (generator(&bch) << (d - deg)) & mask(rem >> d);
        }
        assert_eq!(rem, 0);
    }

    #[test]
    fn code_offset_reconciles_noisy_keys() {
        let co = CodeOffset::new(Bch::new(5).unwrap());
        let mut rng = StdRng::seed_from_u64(11);
        let key: Vec<u128> = (0..3).map(|_| random_word(&mut rng)).collect();
        let helper = co.commit(&key, &mut rng);
        assert_eq!(helper.len(), 3);

        // Noisy copy: flip 4 bits in each of the first two blocks (≤ t = 5).
        let mut noisy = key.clone();
        for block in &mut noisy[..2] {
            for j in 0..4 {
                *block ^= 1 << (j * 25);
            }
        }
        let recovered = co.reconcile(&noisy, &helper).expect("reconcile");
        assert_eq!(recovered, key);
    }

    #[test]
    fn code_offset_fails_beyond_radius() {
        let co = CodeOffset::new(Bch::new(2).unwrap());
        let mut rng = StdRng::seed_from_u64(13);
        let key = [random_word(&mut rng)];
        let helper = co.commit(&key, &mut rng);
        let noisy = [(0..10).fold(key[0], |block, j| block ^ 1 << (j * 12))];
        // 10 errors against t = 2: must fail or mis-recover, never silently
        // return the true key by luck of comparison.
        if let Some(recovered) = co.reconcile(&noisy, &helper) {
            assert_ne!(recovered, key);
        }
        assert_eq!(co.reconcile(&noisy, &helper[..0]), None, "length mismatch");
    }

    #[test]
    fn code_offset_exact_key_roundtrips() {
        let co = CodeOffset::new(Bch::new(1).unwrap());
        let mut rng = StdRng::seed_from_u64(17);
        let key = [random_word(&mut rng) >> 27]; // 100 key bits, zero-padded
        let helper = co.commit(&key, &mut rng);
        let recovered = co.reconcile(&key, &helper).unwrap();
        assert_eq!(recovered, key);
    }

    #[test]
    fn commit_draws_one_bool_per_message_bit() {
        // The helper is the key XOR the codeword of k single-bit draws,
        // block by block, so every RNG stream after a commit holds.
        let co = CodeOffset::shared(5).unwrap();
        let key = [3u128, 1 << 126];
        let mut rng = StdRng::seed_from_u64(23);
        let helper = co.commit(&key, &mut rng);
        let mut oracle_rng = StdRng::seed_from_u64(23);
        let oracle = Reference::new(co.bch());
        for (block, h) in key.iter().zip(&helper) {
            let message: Vec<bool> = (0..oracle.k()).map(|_| oracle_rng.gen()).collect();
            let codeword = word(&oracle.encode(&message).unwrap());
            assert_eq!(*h, block ^ codeword);
        }
        assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
    }

    #[test]
    fn shared_codes_equal_fresh_builds() {
        // Every valid t: the shared code is one build per process, and it
        // is the code `Bch::new` makes — generator, k, tables, and the
        // encode and decode of a random word with t errors in it.
        let mut rng = StdRng::seed_from_u64(19);
        for t in 1..=MAX_T {
            let shared = CodeOffset::shared(t).unwrap().bch();
            assert!(std::ptr::eq(shared, CodeOffset::shared(t).unwrap().bch()), "t = {t}: one build");
            let fresh = Bch::new(t).unwrap();
            assert_eq!((shared.k(), shared.t()), (fresh.k(), fresh.t()), "t = {t}");
            assert_eq!(shared.parity_rows, fresh.parity_rows, "t = {t}");
            assert_eq!(shared.syndrome_planes, fresh.syndrome_planes, "t = {t}");
            assert_eq!(shared.chien_planes, fresh.chien_planes, "t = {t}");
            let message = random_word(&mut rng) >> (GF_ORDER - fresh.k());
            let codeword = fresh.encode(message).unwrap();
            assert_eq!(shared.encode(message).unwrap(), codeword, "t = {t}");
            let noisy = (0..t).fold(codeword, |word, j| word ^ 1 << (j * 8));
            assert_eq!(shared.decode(noisy), fresh.decode(noisy), "t = {t}");
            assert_eq!(shared.decode(noisy).unwrap(), codeword, "t = {t}");
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
