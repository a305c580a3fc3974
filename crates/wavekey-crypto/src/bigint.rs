//! Arbitrary-precision unsigned integers for the OT group arithmetic.
//!
//! [`Ubig`] stores little-endian `u64` limbs. The performance-critical
//! operation is modular exponentiation with a fixed odd modulus (the DH
//! group prime), implemented with Montgomery multiplication — schoolbook
//! multiply plus REDC, which avoids general long division entirely. On
//! x86-64 CPUs with BMI2 and ADX the 1024-bit width runs on the
//! `mulx`/`adcx`/`adox` rows of the `adx` module, and on CPUs with
//! AVX512-IFMA [`MontgomeryCtx::mod_pow_many`] and the generator comb
//! walk run 1024-bit exponentiations eight at a time on the lanes of the
//! `ifma` module. A schoolbook remainder (Knuth's Algorithm D) serves
//! one-time setup (computing `R² mod n`), reducing random samples, and
//! exponent arithmetic.

#[cfg(target_arch = "x86_64")]
use crate::{adx, ifma};
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs,
/// normalized: no trailing zero limbs except for the value 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ubig {
    limbs: Vec<u64>,
}

impl Ubig {
    /// The value 0.
    pub fn zero() -> Ubig {
        Ubig { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Ubig {
        Ubig { limbs: vec![1] }
    }

    /// Builds from a `u64`.
    pub fn from_u64(v: u64) -> Ubig {
        if v == 0 {
            Ubig::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }

    /// Builds from big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Ubig {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        let mut n = Ubig { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes (no leading zeros; `[0]` for zero).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        if self.is_zero() {
            return vec![0];
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Strip leading zeros.
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first);
        out
    }

    /// Serializes to exactly `len` big-endian bytes (left-padded).
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit.
    pub fn to_be_bytes_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_be_bytes();
        let raw = if raw == [0] { Vec::new() } else { raw };
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters.
    pub fn from_hex(s: &str) -> Ubig {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<char> = s.chars().collect();
        let mut i = 0;
        if chars.len() % 2 == 1 {
            bytes.push(chars[0].to_digit(16).expect("hex digit") as u8);
            i = 1;
        }
        while i < chars.len() {
            let hi = chars[i].to_digit(16).expect("hex digit") as u8;
            let lo = chars[i + 1].to_digit(16).expect("hex digit") as u8;
            bytes.push((hi << 4) | lo);
            i += 2;
        }
        Ubig::from_be_bytes(&bytes)
    }

    /// `true` when the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` when the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|&l| l & 1 == 1)
    }

    /// Bit length (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// The value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        limbs_bit(&self.limbs, i)
    }

    /// The value of the `count` bits starting at bit `lo` (little-endian
    /// bit order), as a `u64`. Bits beyond the value are zero.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or greater than 64.
    pub fn bits(&self, lo: usize, count: usize) -> u64 {
        limbs_bits(&self.limbs, lo, count)
    }

    /// Builds from little-endian limbs; leading zero limbs are allowed.
    pub fn from_limbs(limbs: &[u64]) -> Ubig {
        let mut u = Ubig { limbs: limbs.to_vec() };
        u.normalize();
        u
    }

    /// The little-endian limbs, without leading zero limbs (empty for 0).
    pub fn as_limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Writes the value into `out` as little-endian limbs, zero-padded to
    /// `out.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the value needs more than `out.len()` limbs.
    pub fn write_limbs(&self, out: &mut [u64]) {
        assert!(self.limbs.len() <= out.len(), "value wider than {} limbs", out.len());
        let (lo, hi) = out.split_at_mut(self.limbs.len());
        lo.copy_from_slice(&self.limbs);
        hi.fill(0);
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    pub fn add(&self, other: &Ubig) -> Ubig {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u64;
        for i in 0..n {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut r = Ubig { limbs: out };
        r.normalize();
        r
    }

    /// Subtraction.
    ///
    /// # Panics
    ///
    /// Panics on underflow (`other > self`).
    pub fn sub(&self, other: &Ubig) -> Ubig {
        assert!(self.cmp_abs(other) != Ordering::Less, "ubig subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = Ubig { limbs: out };
        r.normalize();
        r
    }

    /// Comparison of absolute values.
    pub fn cmp_abs(&self, other: &Ubig) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &Ubig) -> Ubig {
        if self.is_zero() || other.is_zero() {
            return Ubig::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = u128::from(out[i + j]) + u128::from(a) * u128::from(b) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = u128::from(out[k]) + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = Ubig { limbs: out };
        r.normalize();
        r
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> Ubig {
        if self.is_zero() {
            return Ubig::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = Ubig { limbs: out };
        r.normalize();
        r
    }

    /// Remainder `self mod modulus` by limb-wise schoolbook division
    /// (Knuth vol. 2, §4.3.1, Algorithm D): normalize so the divisor's
    /// top bit is set, estimate each quotient limb from the top limbs,
    /// correct the estimate at most twice, then multiply and subtract
    /// (adding the divisor back in the rare case the estimate was still
    /// one too large). A `2k → k`-limb reduction costs about `k²`
    /// multiply-adds. Used for setup, reducing random samples, and
    /// exponent arithmetic (both OT sender routes reduce `a² mod (u−1)`
    /// through here).
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn rem(&self, modulus: &Ubig) -> Ubig {
        assert!(!modulus.is_zero(), "division by zero");
        if self.cmp_abs(modulus) == Ordering::Less {
            return self.clone();
        }
        let n = modulus.limbs.len();
        if n == 1 {
            let d = u128::from(modulus.limbs[0]);
            let r = self.limbs.iter().rev().fold(0u128, |r, &l| ((r << 64) | u128::from(l)) % d);
            return Ubig::from_u64(r as u64);
        }
        // D1: shift both operands so the divisor's top limb has its top
        // bit set; the dividend gains one limb for the bits shifted out.
        let shift = modulus.limbs[n - 1].leading_zeros();
        let mut v = shl_limbs(&modulus.limbs, shift);
        v.pop();
        let mut u = shl_limbs(&self.limbs, shift);
        let (v_top, v_next) = (u128::from(v[n - 1]), u128::from(v[n - 2]));
        for j in (0..u.len() - n).rev() {
            // D3: estimate q from the top two limbs of the window, then
            // correct it with the third; afterwards it is exact or one
            // too large.
            let top = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
            let (mut q, mut r) = (top / v_top, top % v_top);
            while q > u128::from(u64::MAX) || q * v_next > ((r << 64) | u128::from(u[j + n - 2])) {
                q -= 1;
                r += v_top;
                if r > u128::from(u64::MAX) {
                    break;
                }
            }
            // D4: u[j..=j+n] −= q·v. Each limb borrows at most once.
            let (mut mul_carry, mut borrow) = (0u64, false);
            for (uj, &vi) in u[j..j + n].iter_mut().zip(&v) {
                let p = q * u128::from(vi) + u128::from(mul_carry);
                mul_carry = (p >> 64) as u64;
                let (d, b1) = uj.overflowing_sub(p as u64);
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                *uj = d;
                borrow = b1 | b2;
            }
            let (d, b1) = u[j + n].overflowing_sub(mul_carry);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            u[j + n] = d;
            // D6: q was one too large; add the divisor back (the carry
            // out of the top limb cancels the borrow).
            if b1 || b2 {
                let mut carry = false;
                for (uj, &vi) in u[j..j + n].iter_mut().zip(&v) {
                    let (s, c1) = uj.overflowing_add(vi);
                    let (s, c2) = s.overflowing_add(u64::from(carry));
                    *uj = s;
                    carry = c1 | c2;
                }
                u[j + n] = u[j + n].wrapping_add(u64::from(carry));
            }
        }
        // D8: the remainder is the low n limbs (the limb above them is
        // now zero), shifted back.
        u.truncate(n);
        let mut out = Ubig { limbs: shr_limbs(&u, shift) };
        out.normalize();
        out
    }

    /// Reference remainder: the original allocate-per-step shift-subtract
    /// loop, retained so differential tests can pin [`Ubig::rem`].
    pub fn rem_reference(&self, modulus: &Ubig) -> Ubig {
        assert!(!modulus.is_zero(), "division by zero");
        if self.cmp_abs(modulus) == Ordering::Less {
            return self.clone();
        }
        let shift = self.bit_len() - modulus.bit_len();
        let mut r = self.clone();
        for s in (0..=shift).rev() {
            let shifted = modulus.shl(s);
            if r.cmp_abs(&shifted) != Ordering::Less {
                r = r.sub(&shifted);
            }
        }
        r
    }

    /// Modular addition (`self`, `other` already < `modulus`).
    pub fn mod_add(&self, other: &Ubig, modulus: &Ubig) -> Ubig {
        let s = self.add(other);
        if s.cmp_abs(modulus) == Ordering::Less {
            s
        } else {
            s.sub(modulus)
        }
    }

    /// Samples a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below(bound: &Ubig, rng: &mut StdRng) -> Ubig {
        assert!(!bound.is_zero(), "empty sampling range");
        let bits = bound.bit_len();
        let limbs = bits.div_ceil(64);
        let top_mask = if bits % 64 == 0 { u64::MAX } else { (1u64 << (bits % 64)) - 1 };
        // Rejection sampling keeps the distribution exactly uniform.
        loop {
            let mut candidate: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
            if let Some(top) = candidate.last_mut() {
                *top &= top_mask;
            }
            let mut c = Ubig { limbs: candidate };
            c.normalize();
            if c.cmp_abs(bound) == Ordering::Less {
                return c;
            }
        }
    }
}

impl From<u64> for Ubig {
    fn from(v: u64) -> Ubig {
        Ubig::from_u64(v)
    }
}

impl std::fmt::Display for Ubig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Hexadecimal is enough for protocol debugging.
        if self.is_zero() {
            return write!(f, "0x0");
        }
        write!(f, "0x")?;
        let mut first = true;
        for limb in self.limbs.iter().rev() {
            if first {
                write!(f, "{limb:x}")?;
                first = false;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        Ok(())
    }
}

/// Largest modulus width (in limbs) served by the stack-scratch CIOS
/// kernel; wider moduli fall back to the mul-then-REDC reference path.
/// 32 limbs = 2048 bits, twice the WaveKey group width.
pub(crate) const MAX_CIOS_LIMBS: usize = 32;

/// `a >= b` over equal-length little-endian limb slices.
pub(crate) fn limbs_ge(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Greater => return true,
            Ordering::Less => return false,
            Ordering::Equal => {}
        }
    }
    true
}

/// `a -= b` over equal-length limb slices, wrapping modulo `2^(64·len)`
/// (the final borrow is discarded — callers guarantee it cancels against
/// a carried top bit).
pub(crate) fn limbs_sub_in_place(a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
}

/// Bit length of a little-endian limb slice; leading zero limbs are
/// allowed.
pub(crate) fn limbs_bit_len(x: &[u64]) -> usize {
    x.iter()
        .rposition(|&v| v != 0)
        .map_or(0, |i| 64 * i + 64 - x[i].leading_zeros() as usize)
}

/// Bit `i` of a little-endian limb slice (0 past its end).
fn limbs_bit(x: &[u64], i: usize) -> bool {
    x.get(i / 64).is_some_and(|&l| (l >> (i % 64)) & 1 == 1)
}

/// The `count` bits of a little-endian limb slice starting at bit `lo`,
/// as a `u64` (0 past its end).
///
/// # Panics
///
/// Panics if `count` is 0 or greater than 64.
fn limbs_bits(x: &[u64], lo: usize, count: usize) -> u64 {
    assert!(count >= 1 && count <= 64, "bits() window must be 1..=64");
    let (limb, off) = (lo / 64, lo % 64);
    let mut v = x.get(limb).copied().unwrap_or(0) >> off;
    if off + count > 64 {
        v |= x.get(limb + 1).copied().unwrap_or(0) << (64 - off);
    }
    if count < 64 {
        v & ((1u64 << count) - 1)
    } else {
        v
    }
}

/// `a ← if choice { a } else { b }` over equal-length limb slices, with
/// no branch on `choice`: every limb is merged under an all-ones or
/// all-zeros mask, so the work is the same for either bit. The mask
/// passes through [`std::hint::black_box`] so the optimizer cannot turn
/// the merge back into a branch.
pub(crate) fn ct_select_limbs(choice: bool, a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    let mask = std::hint::black_box(u64::from(choice)).wrapping_neg();
    for (x, &y) in a.iter_mut().zip(b) {
        *x = (*x & mask) | (y & !mask);
    }
}

/// Runs `f` over `len` zeroed limbs of scratch: on the stack for the
/// short runs the one-limb group needs, on the heap past that.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    const STACK: usize = 64;
    if len <= STACK {
        f(&mut [0u64; STACK][..len])
    } else {
        f(&mut vec![0u64; len])
    }
}

/// Limbs per value of a flat batch of `count` values held in `len`
/// limbs.
///
/// # Panics
///
/// Panics unless `len` splits evenly into `count` values.
fn width(len: usize, count: usize) -> usize {
    let w = len / count;
    assert_eq!(w * count, len, "a flat batch must split evenly into {count} values");
    w
}

/// `a << shift` over limbs (`shift < 64`), one limb longer than `a`:
/// the last limb holds the bits shifted out of the top.
fn shl_limbs(a: &[u64], shift: u32) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = 0u64;
    for &l in a {
        out.push((l << shift) | carry);
        carry = l.checked_shr(64 - shift).unwrap_or(0);
    }
    out.push(carry);
    out
}

/// `a >> shift` over limbs (`shift < 64`).
fn shr_limbs(a: &[u64], shift: u32) -> Vec<u64> {
    let next = a.iter().skip(1).chain([&0]);
    a.iter().zip(next).map(|(&l, &h)| (l >> shift) | h.checked_shl(64 - shift).unwrap_or(0)).collect()
}

/// Montgomery multiplication `out = a·b·R⁻¹ mod n` for `a`, `b` in
/// Montgomery form, all operands exactly `n.len()` limbs, with no heap
/// allocation. Dispatches on the width: one limb runs [`mont_mul_1`],
/// 16 limbs run the BMI2/ADX rows (the `adx` module) when the CPU has
/// them, and everything else runs [`portable_mont_mul`]. Every arm
/// returns the same bits.
pub(crate) fn cios_mont_mul(n: &[u64], n_prime: u64, a: &[u64], b: &[u64], out: &mut [u64]) {
    match n.len() {
        1 => out[0] = mont_mul_1(n[0], n_prime, a[0], b[0]),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the guard checked BMI2 and ADX; the kernel checks that
        // every slice is 16 limbs.
        16 if adx::available() => unsafe { adx::mont_mul_16(n, n_prime, a, b, out) },
        _ => portable_mont_mul(n, n_prime, a, b, out),
    }
}

/// Dedicated Montgomery squaring: `out = a²·R⁻¹ mod n`, `==` to
/// [`cios_mont_mul`]`(n, n_prime, a, a, out)` for every `k`-limb `a`.
/// The one-limb and ADX arms square through their multiply (on the ADX
/// rows a triangle measured no faster than the full product); other
/// widths run [`portable_mont_sqr`].
pub(crate) fn cios_mont_sqr(n: &[u64], n_prime: u64, a: &[u64], out: &mut [u64]) {
    match n.len() {
        1 => out[0] = mont_mul_1(n[0], n_prime, a[0], a[0]),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `cios_mont_mul`.
        16 if adx::available() => unsafe { adx::mont_mul_16(n, n_prime, a, a, out) },
        _ => portable_mont_sqr(n, n_prime, a, out),
    }
}

/// Name of the 16-limb (1024-bit) Montgomery kernel this process runs:
/// `"adx"` on x86-64 CPUs with BMI2 and ADX, `"portable"` elsewhere.
pub fn mont_kernel_1024() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if adx::available() {
        return "adx";
    }
    "portable"
}

/// Name of the kernel behind [`MontgomeryCtx::mod_pow_many`] and the
/// generator comb walk of
/// [`DhGroup::pow_g_many`](crate::group::DhGroup::pow_g_many) at 16
/// limbs: `"ifma8"` (eight lanes) on x86-64 CPUs with AVX-512F and
/// AVX512-IFMA, `"scalar"` (one [`MontgomeryCtx::mod_pow`] per pair, one
/// [`MontgomeryCtx::pow_fixed_base`] per exponent) elsewhere.
pub fn pow_many_kernel_1024() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if ifma::available() {
        return "ifma8";
    }
    "scalar"
}

/// The one-limb Montgomery product `a·b·2⁻⁶⁴ mod n`, `==` to the CIOS
/// kernel at `k = 1`. `a·b + m·n` needs 129 bits: the carry out of the
/// `u128` sum is bit 128, and it forces the same conditional
/// subtraction as the CIOS kernel's top word.
fn mont_mul_1(n: u64, n_prime: u64, a: u64, b: u64) -> u64 {
    let t = u128::from(a) * u128::from(b);
    let m = (t as u64).wrapping_mul(n_prime);
    let (s, top) = t.overflowing_add(u128::from(m) * u128::from(n));
    let r = (s >> 64) as u64;
    if top || r >= n {
        r.wrapping_sub(n)
    } else {
        r
    }
}

/// Interleaved CIOS Montgomery multiplication (Koç-Acar-Kaliski), the
/// portable kernel behind [`cios_mont_mul`] and its differential oracle
/// at 16 limbs.
///
/// Multiply and reduce are fused: each outer iteration folds one limb of
/// `b` in and one reduction step out, so the working set stays at
/// `k + 2` limbs instead of `2k + 1`.
pub(crate) fn portable_mont_mul(n: &[u64], n_prime: u64, a: &[u64], b: &[u64], out: &mut [u64]) {
    // The 1024-bit group width gets its own copy with `k` a compile-time
    // constant, so the inner loops unroll (~20% off a comb walk) and the
    // scratch is exactly `k + 2` limbs.
    if n.len() == 16 {
        mont_mul_width::<18>(n, n_prime, a, b, out, 16);
    } else {
        mont_mul_width::<{ MAX_CIOS_LIMBS + 2 }>(n, n_prime, a, b, out, n.len());
    }
}

/// The CIOS loops at width `k` over an `S`-limb stack scratch
/// (`S ≥ k + 2`).
#[inline(always)]
fn mont_mul_width<const S: usize>(
    n: &[u64],
    n_prime: u64,
    a: &[u64],
    b: &[u64],
    out: &mut [u64],
    k: usize,
) {
    debug_assert!(k >= 1 && k + 2 <= S);
    debug_assert!(n.len() == k && a.len() == k && b.len() == k && out.len() == k);
    let (n, a, b) = (&n[..k], &a[..k], &b[..k]);
    let mut scratch = [0u64; S];
    let t = &mut scratch[..k + 2];
    for i in 0..k {
        // t += a · b[i]
        let bi = u128::from(b[i]);
        let mut carry = 0u128;
        for j in 0..k {
            let cur = u128::from(t[j]) + u128::from(a[j]) * bi + carry;
            t[j] = cur as u64;
            carry = cur >> 64;
        }
        let cur = u128::from(t[k]) + carry;
        t[k] = cur as u64;
        t[k + 1] = (cur >> 64) as u64;
        // t = (t + m·n) / 2^64 with m chosen so the low limb cancels.
        let m = u128::from(t[0].wrapping_mul(n_prime));
        let cur = u128::from(t[0]) + m * u128::from(n[0]);
        let mut carry = cur >> 64;
        for j in 1..k {
            let cur = u128::from(t[j]) + m * u128::from(n[j]) + carry;
            t[j - 1] = cur as u64;
            carry = cur >> 64;
        }
        let cur = u128::from(t[k]) + carry;
        t[k - 1] = cur as u64;
        t[k] = t[k + 1] + (cur >> 64) as u64;
    }
    // Result is in [0, 2n); one conditional subtraction normalizes it. A
    // set top word means t ≥ 2^(64k) > n, and the discarded borrow of the
    // wrapping subtraction cancels exactly against it.
    if t[k] != 0 || limbs_ge(&t[..k], n) {
        limbs_sub_in_place(&mut t[..k], n);
    }
    out.copy_from_slice(&t[..k]);
}

/// Portable Montgomery squaring behind [`cios_mont_sqr`], and its
/// differential oracle at 16 limbs.
///
/// The product phase computes the off-diagonal triangle `a[i]·a[j]`
/// (`j > i`) once, doubles it and adds the diagonal squares — `k(k+1)/2`
/// multiplies instead of `k²` — then a separate REDC pass folds the
/// `2k`-limb square down. Both kernels compute the same integer
/// `(a² + M·n)/R` (the quotient `M = −a²·n⁻¹ mod R` is unique) and apply
/// the same single conditional subtraction, so results are bit-identical.
pub(crate) fn portable_mont_sqr(n: &[u64], n_prime: u64, a: &[u64], out: &mut [u64]) {
    // Specialized at the 1024-bit width like `portable_mont_mul`, with a
    // `2k`-limb scratch.
    if n.len() == 16 {
        mont_sqr_width::<32>(n, n_prime, a, out, 16);
    } else {
        mont_sqr_width::<{ 2 * MAX_CIOS_LIMBS }>(n, n_prime, a, out, n.len());
    }
}

/// The squaring loops at width `k` over an `S`-limb stack scratch
/// (`S ≥ 2k`).
#[inline(always)]
fn mont_sqr_width<const S: usize>(n: &[u64], n_prime: u64, a: &[u64], out: &mut [u64], k: usize) {
    debug_assert!(k >= 1 && 2 * k <= S);
    debug_assert!(n.len() == k && a.len() == k && out.len() == k);
    let (n, a) = (&n[..k], &a[..k]);
    let mut scratch = [0u64; S];
    let t = &mut scratch[..2 * k];
    // Off-diagonal triangle: t += a[i]·a[j] for j > i.
    for i in 0..k - 1 {
        let ai = u128::from(a[i]);
        let mut carry = 0u128;
        for (tj, &aj) in t[2 * i + 1..i + k].iter_mut().zip(&a[i + 1..]) {
            let cur = u128::from(*tj) + u128::from(aj) * ai + carry;
            *tj = cur as u64;
            carry = cur >> 64;
        }
        t[i + k] = carry as u64;
    }
    // Double the triangle (it is below a²/2, so no bit leaves the top)
    // and add the diagonal a[i]² terms, one limb pair per step.
    let mut msb = 0u64;
    let mut carry = 0u128;
    for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
        let sq = u128::from(ai) * u128::from(ai);
        let lo = (pair[0] << 1) | msb;
        let hi = (pair[1] << 1) | (pair[0] >> 63);
        msb = pair[1] >> 63;
        let cur = u128::from(lo) + (sq & u128::from(u64::MAX)) + carry;
        pair[0] = cur as u64;
        let cur = u128::from(hi) + (sq >> 64) + (cur >> 64);
        pair[1] = cur as u64;
        carry = cur >> 64;
    }
    debug_assert!(carry == 0 && msb == 0);
    // REDC: clear one low limb per step. The carry out of limb i + k is
    // deferred into `top` and lands on limb i + k + 1 next step, which
    // that step's inner loop does not touch.
    let mut top = 0u64;
    for i in 0..k {
        let m = u128::from(t[i].wrapping_mul(n_prime));
        let mut carry = 0u128;
        for (tj, &nj) in t[i..i + k].iter_mut().zip(n) {
            let cur = u128::from(*tj) + m * u128::from(nj) + carry;
            *tj = cur as u64;
            carry = cur >> 64;
        }
        let cur = u128::from(t[i + k]) + carry + u128::from(top);
        t[i + k] = cur as u64;
        top = (cur >> 64) as u64;
    }
    // (a² + M·n)/R < 2^(64k) + n: `top` is its bit 64k, and the same
    // conditional subtraction as the multiply kernel normalizes it.
    let r = &mut t[k..];
    if top != 0 || limbs_ge(r, n) {
        limbs_sub_in_place(r, n);
    }
    out.copy_from_slice(r);
}

/// Pads a value to exactly `k` limbs (the fixed-width Montgomery layout).
fn pad_limbs(a: &Ubig, k: usize) -> Vec<u64> {
    debug_assert!(a.limbs.len() <= k);
    let mut v = a.limbs.clone();
    v.resize(k, 0);
    v
}

/// Precomputed fixed-base exponentiation table (radix-2^w comb).
///
/// Stores `base^(d·2^(w·i))` in Montgomery form for every window position
/// `i` and every digit `d ∈ 1..2^w`, covering exponents up to
/// `windows · w` bits. Exponentiation then needs only one Montgomery
/// multiplication per *non-zero* exponent digit — no squarings at all —
/// at the cost of `windows · (2^w − 1)` stored group elements.
#[derive(Debug, Clone)]
pub struct FixedBaseTable {
    /// The plain-form (reduced) base, kept for the out-of-range fallback.
    base: Ubig,
    /// Window width in bits.
    w: usize,
    /// Number of digit positions covered.
    windows: usize,
    /// Modulus width in limbs; entries are `k` limbs each.
    k: usize,
    /// `windows × (2^w − 1)` Montgomery-form entries, flattened.
    table: Vec<u64>,
}

impl FixedBaseTable {
    /// Window width in bits.
    pub fn window_bits(&self) -> usize {
        self.w
    }

    /// Approximate table memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.table.len() * 8
    }
}

/// Sliding-window width for a one-off exponentiation of `bits` bits; the
/// odd-power table costs `2^(w−1)` multiplications up front, so small
/// exponents use small windows.
fn pow_window_size(bits: usize) -> usize {
    match bits {
        0..=24 => 1,
        25..=80 => 3,
        81..=240 => 4,
        241..=768 => 5,
        _ => 6,
    }
}

/// Montgomery arithmetic context for a fixed odd modulus.
///
/// All heavy modular work (the OT group exponentiations) goes through this
/// context: `R = 2^(64·k)` where `k` is the modulus limb count and values
/// are kept in Montgomery form `aR mod n`. The hot multiplication kernel
/// is an interleaved CIOS multiply over fixed-width scratch buffers
/// ([`cios_mont_mul`]); the original schoolbook-multiply-then-REDC path is
/// retained as [`MontgomeryCtx::mod_mul_reference`] for differential
/// testing and as the fallback for moduli wider than [`MAX_CIOS_LIMBS`].
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    n: Ubig,
    k: usize,
    /// `-n⁻¹ mod 2^64`.
    n_prime: u64,
    /// `R² mod n`, for conversion into Montgomery form.
    r2: Ubig,
    /// `R² mod n` padded to `k` limbs.
    r2_fixed: Vec<u64>,
    /// `1` in Montgomery form (`R mod n`), padded to `k` limbs.
    one_fixed: Vec<u64>,
    /// Plain `1` padded to `k` limbs: a Montgomery product by it leaves
    /// Montgomery form.
    unit: Vec<u64>,
    /// Radix-2^52 constants for the eight-lane kernels of
    /// [`MontgomeryCtx::mod_pow_many`] and
    /// [`MontgomeryCtx::pow_comb_many`], present for 16-limb moduli.
    /// Boxed, so contexts of other widths stay small.
    #[cfg(target_arch = "x86_64")]
    lanes: Option<Box<ifma::Consts>>,
}

impl MontgomeryCtx {
    /// Creates a context for the odd modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or zero.
    pub fn new(n: Ubig) -> MontgomeryCtx {
        assert!(n.is_odd(), "montgomery modulus must be odd");
        let k = n.limbs.len();
        // n' = -n^{-1} mod 2^64 via Newton iteration on the low limb.
        let n0 = n.limbs[0];
        let mut inv = n0; // correct mod 2^3
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n_prime = inv.wrapping_neg();
        // R² mod n via slow-path reduction (one-time).
        let r2 = Ubig::one().shl(2 * 64 * k).rem(&n);
        let r2_fixed = pad_limbs(&r2, k);
        #[cfg(target_arch = "x86_64")]
        let lanes = (k == 16).then(|| {
            let rr = Ubig::one().shl(2 * ifma::R_BITS).rem(&n);
            let one = Ubig::one().shl(ifma::R_BITS).rem(&n);
            Box::new(ifma::Consts::new(&n.limbs, n_prime, &rr.limbs, &one.limbs))
        });
        let mut ctx = MontgomeryCtx {
            n,
            k,
            n_prime,
            r2,
            r2_fixed,
            one_fixed: Vec::new(),
            unit: pad_limbs(&Ubig::one(), k),
            #[cfg(target_arch = "x86_64")]
            lanes,
        };
        // 1·R mod n = REDC(R² · 1).
        let mut one_m = vec![0u64; k];
        ctx.mont_mul_fixed(&ctx.unit, &ctx.r2_fixed, &mut one_m);
        ctx.one_fixed = one_m;
        ctx
    }

    /// The modulus.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// Limbs per residue, `k`: a flat batch holds each result as a run of
    /// `k` little-endian limbs.
    pub fn limbs(&self) -> usize {
        self.k
    }

    /// Rough cost of one exponentiation in 64-bit limb multiply-adds
    /// (modulus bits × limbs²), the `work` estimate for `wavekey_par`
    /// loops over exponentiations.
    pub fn modexp_work(&self) -> usize {
        self.n.bit_len() * self.k * self.k
    }

    /// Montgomery reduction of a double-width product (reference path and
    /// wide-modulus fallback).
    fn redc(&self, t: &mut Vec<u64>) -> Ubig {
        t.resize(2 * self.k + 1, 0);
        for i in 0..self.k {
            let m = t[i].wrapping_mul(self.n_prime);
            let mut carry = 0u128;
            for j in 0..self.k {
                let cur = u128::from(t[i + j])
                    + u128::from(m) * u128::from(self.n.limbs.get(j).copied().unwrap_or(0))
                    + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + self.k;
            while carry > 0 {
                let cur = u128::from(t[idx]) + carry;
                t[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        let mut out = Ubig { limbs: t[self.k..].to_vec() };
        out.normalize();
        if out.cmp_abs(&self.n) != Ordering::Less {
            out = out.sub(&self.n);
        }
        out
    }

    /// Reference Montgomery multiplication: schoolbook multiply, then a
    /// separate REDC pass. Retained for differential testing against the
    /// CIOS kernel and as the fallback for very wide moduli.
    fn mont_mul_mul_then_redc(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let prod = a.mul(b);
        let mut t = prod.limbs;
        self.redc(&mut t)
    }

    /// Fixed-width Montgomery multiplication: `out = a·b·R⁻¹ mod n` with
    /// all operands exactly `k` limbs, in Montgomery form.
    fn mont_mul_fixed(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        if self.k <= MAX_CIOS_LIMBS {
            cios_mont_mul(&self.n.limbs, self.n_prime, a, b, out);
        } else {
            let r = self.mont_mul_mul_then_redc(&Ubig::from_limbs(a), &Ubig::from_limbs(b));
            let padded = pad_limbs(&r, self.k);
            out.copy_from_slice(&padded);
        }
    }

    /// Fixed-width Montgomery squaring, `==` to
    /// `mont_mul_fixed(a, a, out)`.
    fn mont_sqr_fixed(&self, a: &[u64], out: &mut [u64]) {
        if self.k <= MAX_CIOS_LIMBS {
            cios_mont_sqr(&self.n.limbs, self.n_prime, a, out);
        } else {
            self.mont_mul_fixed(a, a, out);
        }
    }

    /// Converts a reduced value (`a < n`) into fixed-width Montgomery form.
    fn to_mont_fixed(&self, a: &Ubig) -> Vec<u64> {
        debug_assert!(a.cmp_abs(&self.n) == Ordering::Less);
        let mut out = vec![0u64; self.k];
        self.mont_mul_fixed(&pad_limbs(a, self.k), &self.r2_fixed, &mut out);
        out
    }

    /// Converts a fixed-width Montgomery value back to plain form.
    fn from_mont_fixed(&self, a: &[u64]) -> Ubig {
        let mut out = vec![0u64; self.k];
        self.from_mont_into(a, &mut out);
        Ubig::from_limbs(&out)
    }

    /// Converts a fixed-width Montgomery value back to plain form in
    /// `out` (`k` limbs).
    fn from_mont_into(&self, a: &[u64], out: &mut [u64]) {
        self.mont_mul_fixed(a, &self.unit, out);
    }

    /// `x mod n` into the `k` limbs of `out`, for `x` of any width. A
    /// value that already fits below `n` is copied; only a wider or
    /// unreduced one runs [`Ubig::rem`].
    fn reduce_into(&self, x: &[u64], out: &mut [u64]) {
        let top = x.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
        if top <= self.k {
            out[..top].copy_from_slice(&x[..top]);
            out[top..].fill(0);
            if !limbs_ge(out, &self.n.limbs) {
                return;
            }
        }
        Ubig::from_limbs(x).rem(&self.n).write_limbs(out);
    }

    /// In-place Montgomery-domain doubling: `a ← 2a mod n`.
    fn mont_double_fixed(&self, a: &mut [u64]) {
        let mut carry = 0u64;
        for limb in a.iter_mut() {
            let top = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = top;
        }
        if carry != 0 || limbs_ge(a, &self.n.limbs) {
            limbs_sub_in_place(a, &self.n.limbs);
        }
    }

    /// `a·b mod n` into `out`, for `a` and `b` of `k` limbs below `n`
    /// (plain form in, plain form out): one Montgomery product gives
    /// `a·b·R⁻¹`, and a second, by `R²`, brings it back to `a·b`.
    pub fn mod_mul_limbs(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        with_scratch(self.k, |t| {
            self.mont_mul_fixed(a, b, t);
            self.mont_mul_fixed(t, &self.r2_fixed, out);
        });
    }

    /// Modular multiplication `a·b mod n` (plain form in, plain form out).
    pub fn mod_mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let am = self.to_mont_fixed(&a.rem(&self.n));
        let bm = self.to_mont_fixed(&b.rem(&self.n));
        let mut prod = vec![0u64; self.k];
        self.mont_mul_fixed(&am, &bm, &mut prod);
        self.from_mont_fixed(&prod)
    }

    /// Reference modular multiplication via mul-then-REDC, retained so
    /// differential tests can pin the CIOS kernel against it.
    pub fn mod_mul_reference(&self, a: &Ubig, b: &Ubig) -> Ubig {
        let am = self.mont_mul_mul_then_redc(&a.rem(&self.n), &self.r2);
        let bm = self.mont_mul_mul_then_redc(&b.rem(&self.n), &self.r2);
        let prod = self.mont_mul_mul_then_redc(&am, &bm);
        let mut t = prod.limbs;
        self.redc(&mut t)
    }

    /// The largest window of at most `w` bits whose lowest bit is set,
    /// with its top at bit `i` (which must be set). Returns the window
    /// value and the index of its lowest bit.
    fn window_at(exp: &[u64], i: isize, w: usize) -> (usize, isize) {
        let mut j = (i - w as isize + 1).max(0);
        while !limbs_bit(exp, j as usize) {
            j += 1;
        }
        let count = (i - j + 1) as usize;
        (limbs_bits(exp, j as usize, count) as usize, j)
    }

    /// Modular exponentiation `base^exp mod n` by left-to-right k-ary
    /// sliding windows over an odd-power table, in the Montgomery domain.
    /// The window width scales with the exponent size (up to 6 bits, so a
    /// 1024-bit exponent costs ~1024 squarings plus ~150 multiplications
    /// instead of ~512 on top of the squarings). Squarings go through
    /// the dedicated [`cios_mont_sqr`] kernel.
    pub fn mod_pow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        let mut out = vec![0u64; self.k];
        with_scratch(self.k, |b| {
            self.reduce_into(&base.limbs, b);
            self.mod_pow_limbs(b, &exp.limbs, &mut out);
        });
        Ubig::from_limbs(&out)
    }

    /// [`MontgomeryCtx::mod_pow`] over limb slices: `base^exp mod n` into
    /// `out` (`k` limbs), for a `base` of `k` limbs below `n` and an `exp`
    /// of any width.
    fn mod_pow_limbs(&self, base: &[u64], exp: &[u64], out: &mut [u64]) {
        let k = self.k;
        let bits = limbs_bit_len(exp);
        if bits == 0 {
            return self.from_mont_into(&self.one_fixed, out);
        }
        let w = pow_window_size(bits);
        // tbl[i] = base^(2i+1) in Montgomery form, then two accumulators.
        let half = 1usize << (w - 1);
        with_scratch((half + 2) * k, |scratch| {
            let (tbl, rest) = scratch.split_at_mut(half * k);
            let (mut acc, mut tmp) = rest.split_at_mut(k);
            self.mont_mul_fixed(base, &self.r2_fixed, &mut tbl[..k]);
            if half > 1 {
                // base² in `acc`, only until the first window seeds it.
                self.mont_sqr_fixed(&tbl[..k], acc);
                for i in 1..half {
                    let (lo, hi) = tbl.split_at_mut(i * k);
                    self.mont_mul_fixed(&lo[(i - 1) * k..], acc, &mut hi[..k]);
                }
            }
            // The top bit is set, so the first window always forms there
            // and seeds the accumulator directly (no leading squarings of
            // 1).
            let mut i = bits as isize - 1;
            let (val, j) = Self::window_at(exp, i, w);
            acc.copy_from_slice(&tbl[((val - 1) / 2) * k..][..k]);
            i = j - 1;
            while i >= 0 {
                if !limbs_bit(exp, i as usize) {
                    self.mont_sqr_fixed(acc, tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                    i -= 1;
                } else {
                    let (val, j) = Self::window_at(exp, i, w);
                    for _ in 0..(i - j + 1) {
                        self.mont_sqr_fixed(acc, tmp);
                        std::mem::swap(&mut acc, &mut tmp);
                    }
                    self.mont_mul_fixed(acc, &tbl[((val - 1) / 2) * k..][..k], tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                    i = j - 1;
                }
            }
            self.from_mont_into(acc, out);
        });
    }

    /// `bases[i]^exps[i] mod n` for every pair `i`, written to the `i`-th
    /// `k`-limb run of `out`, each equal to [`MontgomeryCtx::mod_pow`] of
    /// the same pair.
    ///
    /// The batch is flat: `out` holds `count = out.len() / k` results,
    /// and `bases` and `exps` hold `count` little-endian values each, of
    /// `bases.len() / count` and `exps.len() / count` limbs. Bases may
    /// be unreduced and exponents of any width.
    ///
    /// With a 16-limb modulus on a CPU with AVX512-IFMA, pairs run eight
    /// at a time on the `ifma` lanes: fixed 5-bit windows with masked
    /// table reads, so no branch or load address depends on an exponent.
    /// A trailing group of fewer than eight is padded. Every other width
    /// and CPU runs `mod_pow` per pair. Groups, or pairs, fan out through
    /// [`wavekey_par::for_each_chunk_mut`].
    ///
    /// # Panics
    ///
    /// Panics unless `out` is a whole number of residues and `bases` and
    /// `exps` split evenly into one value per result.
    pub fn mod_pow_many(&self, bases: &[u64], exps: &[u64], out: &mut [u64]) {
        let k = self.k;
        let count = width(out.len(), k);
        if count == 0 {
            assert!(bases.is_empty() && exps.is_empty(), "one base and one exponent per result");
            return;
        }
        let (bw, ew) = (width(bases.len(), count), width(exps.len(), count));
        let work = self.modexp_work();
        #[cfg(target_arch = "x86_64")]
        if let Some(lanes) = self.lanes.as_ref().filter(|_| ifma::available()) {
            const L: usize = ifma::LANES;
            let groups = count.div_ceil(L);
            return wavekey_par::for_each_chunk_mut(out, L * k, groups * L * work, |g, chunk| {
                let (lo, hi) = (g * L, g * L + chunk.len() / k);
                self.pow_lane_group(lanes, &bases[lo * bw..hi * bw], &exps[lo * ew..hi * ew], chunk);
            });
        }
        wavekey_par::for_each_chunk_mut(out, k, count * work, |i, r| {
            with_scratch(k, |b| {
                self.reduce_into(&bases[i * bw..][..bw], b);
                self.mod_pow_limbs(b, &exps[i * ew..][..ew], r);
            });
        });
    }

    /// Up to eight [`MontgomeryCtx::mod_pow`]s in one `ifma` call: the
    /// flat `bases` and `exps` of one lane group, results into `out`.
    #[cfg(target_arch = "x86_64")]
    fn pow_lane_group(&self, lanes: &ifma::Consts, bases: &[u64], exps: &[u64], out: &mut [u64]) {
        let m = out.len() / 16;
        let (bw, ew) = (bases.len() / m, exps.len() / m);
        let mut reduced = [[0u64; 16]; ifma::LANES];
        for (l, r) in reduced.iter_mut().take(m).enumerate() {
            self.reduce_into(&bases[l * bw..][..bw], r);
        }
        // Lanes past the end read 0 and compute `0^0`, which is dropped.
        let b = std::array::from_fn(|l| if l < m { &reduced[l][..] } else { &[][..] });
        let e = std::array::from_fn(|l| if l < m { &exps[l * ew..][..ew] } else { &[][..] });
        // SAFETY: `mod_pow_many` reaches here only after
        // `ifma::available()` returned true, and every base is reduced
        // below n.
        let walked = unsafe { ifma::mod_pow_8(lanes, &b, &e) };
        for (r, w) in out.chunks_exact_mut(16).zip(&walked) {
            r.copy_from_slice(w);
        }
    }

    /// The `ifma` comb table of `base` for
    /// [`MontgomeryCtx::pow_comb_many`], or `None` for a modulus other
    /// than 16 limbs or a CPU without AVX512-IFMA.
    ///
    /// Five scalar Montgomery squarings per window give the window bases
    /// `base^(2^(5i))`, which leave Montgomery form for the lane passes.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn lane_comb_table(&self, base: &Ubig) -> Option<ifma::CombTable> {
        let lanes = self.lanes.as_deref().filter(|_| ifma::available())?;
        let mut cur = self.to_mont_fixed(&base.rem(&self.n));
        let mut tmp = vec![0u64; self.k];
        let mut bases = vec![[0u64; 16]; ifma::COMB_WINDOWS];
        for plain in &mut bases {
            self.from_mont_into(&cur, plain);
            for _ in 0..ifma::WINDOW {
                self.mont_sqr_fixed(&cur, &mut tmp);
                std::mem::swap(&mut cur, &mut tmp);
            }
        }
        // SAFETY: `ifma::available()` returned true above.
        Some(unsafe { ifma::comb_table(lanes, &bases) })
    }

    /// `base^exps[i] mod n` for every exponent `i`, into the `i`-th
    /// 16-limb run of `out`, each equal to [`MontgomeryCtx::mod_pow`] of
    /// `base` and that exponent, where `t` is
    /// [`MontgomeryCtx::lane_comb_table`] of `base`. `exps` holds one
    /// little-endian exponent per result, all of `exps.len() / count`
    /// limbs.
    ///
    /// Exponents go eight at a time through the `ifma` comb walk, one
    /// product per 5-bit window and no branch or load address that
    /// depends on an exponent. The groups fan out through
    /// [`wavekey_par::for_each_chunk_mut`], and the last one is padded
    /// with zero exponents whose results are dropped. An exponent wider
    /// than the table's 1025 bits runs `mod_pow` instead.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn pow_comb_many(
        &self,
        t: &ifma::CombTable,
        base: &Ubig,
        exps: &[u64],
        out: &mut [u64],
    ) {
        const L: usize = ifma::LANES;
        let lanes = self.lanes.as_deref().expect("a lane comb table needs lane constants");
        let k = self.k;
        let count = width(out.len(), k);
        if count == 0 {
            return;
        }
        let ew = width(exps.len(), count);
        let covered = |x: &[u64]| limbs_bit_len(x) <= ifma::COMB_BITS;
        let groups = count.div_ceil(L);
        let work = L * ifma::COMB_WINDOWS * k * k;
        wavekey_par::for_each_chunk_mut(out, L * k, groups * work, |g, chunk| {
            let m = chunk.len() / k;
            let x = |l: usize| &exps[(g * L + l) * ew..][..ew];
            let lane_exps =
                std::array::from_fn(|l| if l < m && covered(x(l)) { x(l) } else { &[][..] });
            // SAFETY: a comb table exists only once `ifma::comb_table`
            // has run, which requires `ifma::available()`.
            let walked = unsafe { ifma::comb_8(lanes, t, &lane_exps) };
            for (l, r) in chunk.chunks_exact_mut(k).enumerate() {
                if covered(x(l)) {
                    r.copy_from_slice(&walked[l]);
                } else {
                    with_scratch(k, |b| {
                        self.reduce_into(&base.limbs, b);
                        self.mod_pow_limbs(b, x(l), r);
                    });
                }
            }
        });
    }

    /// Reference modular exponentiation: the original bit-at-a-time
    /// square-and-multiply over the mul-then-REDC kernel. Retained so
    /// differential tests can pin the windowed [`MontgomeryCtx::mod_pow`]
    /// and the fixed-base path against it.
    pub fn mod_pow_reference(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        if exp.is_zero() {
            return Ubig::one().rem(&self.n);
        }
        let base = base.rem(&self.n);
        let base_m = self.mont_mul_mul_then_redc(&base, &self.r2);
        let mut acc = self.mont_mul_mul_then_redc(&Ubig::one(), &self.r2);
        for i in (0..exp.bit_len()).rev() {
            acc = self.mont_mul_mul_then_redc(&acc, &acc);
            if exp.bit(i) {
                acc = self.mont_mul_mul_then_redc(&acc, &base_m);
            }
        }
        let mut t = acc.limbs;
        self.redc(&mut t)
    }

    /// Fast path for `2^exp mod n`: in the Montgomery domain the
    /// multiply-by-two step is a single modular doubling, so only the
    /// squarings cost full multiplications.
    pub fn mod_pow2(&self, exp: &Ubig) -> Ubig {
        if exp.is_zero() {
            return Ubig::one().rem(&self.n);
        }
        let mut acc = self.one_fixed.clone();
        let mut tmp = vec![0u64; self.k];
        for i in (0..exp.bit_len()).rev() {
            self.mont_sqr_fixed(&acc, &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
            if exp.bit(i) {
                self.mont_double_fixed(&mut acc);
            }
        }
        self.from_mont_fixed(&acc)
    }

    /// Precomputes a fixed-base exponentiation table for `base`, covering
    /// exponents up to `max_exp_bits` bits with `w`-bit windows.
    ///
    /// Build cost is one Montgomery multiplication per table entry
    /// (`⌈max_exp_bits/w⌉ · (2^w − 1)` of them) — paid once per base and
    /// amortized across every subsequent [`MontgomeryCtx::pow_fixed_base`]
    /// call, each of which then costs at most one multiplication per
    /// exponent digit.
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside `1..=8`.
    pub fn fixed_base_table(&self, base: &Ubig, max_exp_bits: usize, w: usize) -> FixedBaseTable {
        assert!(w >= 1 && w <= 8, "fixed-base window must be 1..=8 bits");
        let k = self.k;
        let windows = max_exp_bits.div_ceil(w).max(1);
        let epw = (1usize << w) - 1;
        let base_red = base.rem(&self.n);
        let mut table = vec![0u64; windows * epw * k];
        let mut cur = self.to_mont_fixed(&base_red);
        let mut next = vec![0u64; k];
        for win in 0..windows {
            let start = win * epw * k;
            table[start..start + k].copy_from_slice(&cur);
            for d in 2..=epw {
                let (lo, hi) = table.split_at_mut(start + (d - 1) * k);
                self.mont_mul_fixed(&lo[start + (d - 2) * k..], &cur, &mut hi[..k]);
            }
            // Advance to the next window position:
            // cur ← cur^(2^w) = cur^(2^w − 1) · cur (one multiplication).
            {
                let last = &table[start + (epw - 1) * k..start + epw * k];
                self.mont_mul_fixed(last, &cur, &mut next);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        FixedBaseTable { base: base_red, w, windows, k, table }
    }

    /// Fixed-base exponentiation `base^exp mod n` using a precomputed
    /// table: one Montgomery multiplication per non-zero exponent digit,
    /// zero squarings. Falls back to the general [`MontgomeryCtx::mod_pow`]
    /// for exponents wider than the table's coverage.
    pub fn pow_fixed_base(&self, t: &FixedBaseTable, exp: &Ubig) -> Ubig {
        let mut out = vec![0u64; self.k];
        self.pow_fixed_base_limbs(t, &exp.limbs, &mut out);
        Ubig::from_limbs(&out)
    }

    /// [`MontgomeryCtx::pow_fixed_base`] for every exponent of the flat
    /// batch `exps`, into the matching `k`-limb run of `out`, in the
    /// layout of [`MontgomeryCtx::mod_pow_many`]. The exponents fan out
    /// through [`wavekey_par::for_each_chunk_mut`].
    pub(crate) fn pow_fixed_base_many(&self, t: &FixedBaseTable, exps: &[u64], out: &mut [u64]) {
        let count = width(out.len(), self.k);
        if count == 0 {
            return;
        }
        let ew = width(exps.len(), count);
        wavekey_par::for_each_chunk_mut(out, self.k, count * self.modexp_work(), |i, r| {
            self.pow_fixed_base_limbs(t, &exps[i * ew..][..ew], r);
        });
    }

    /// [`MontgomeryCtx::pow_fixed_base`] over limb slices: the power into
    /// `out` (`k` limbs), for an `exp` of any width.
    fn pow_fixed_base_limbs(&self, t: &FixedBaseTable, exp: &[u64], out: &mut [u64]) {
        debug_assert_eq!(t.k, self.k, "table built for a different modulus width");
        let k = self.k;
        let bits = limbs_bit_len(exp);
        if bits == 0 {
            return self.from_mont_into(&self.one_fixed, out);
        }
        if bits > t.windows * t.w {
            return with_scratch(k, |b| {
                t.base.write_limbs(b);
                self.mod_pow_limbs(b, exp, out);
            });
        }
        let epw = (1usize << t.w) - 1;
        with_scratch(2 * k, |scratch| {
            let (acc, tmp) = scratch.split_at_mut(k);
            let mut started = false;
            for win in 0..t.windows {
                let digit = limbs_bits(exp, win * t.w, t.w) as usize;
                if digit == 0 {
                    continue;
                }
                let entry = &t.table[(win * epw + digit - 1) * k..][..k];
                if started {
                    self.mont_mul_fixed(acc, entry, tmp);
                    acc.copy_from_slice(tmp);
                } else {
                    acc.copy_from_slice(entry);
                    started = true;
                }
            }
            // A non-zero exponent has at least one non-zero digit.
            debug_assert!(started, "non-zero exponent with all-zero digits");
            self.from_mont_into(acc, out);
        });
    }

    /// Modular inverse of `a` for a *prime* modulus, via Fermat's little
    /// theorem: `a^(n−2) mod n`.
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod n)`.
    pub fn mod_inv_prime(&self, a: &Ubig) -> Ubig {
        let a = a.rem(&self.n);
        assert!(!a.is_zero(), "zero has no inverse");
        let exp = self.n.sub(&Ubig::from_u64(2));
        self.mod_pow(&a, &exp)
    }
}

/// Deterministic Miller-Rabin primality test, correct for all `n < 3.3·10²⁴`
/// with the fixed witness set and strongly reliable for larger inputs.
pub fn is_probable_prime(n: &Ubig) -> bool {
    if n.is_zero() {
        return false;
    }
    if n.limbs.len() == 1 {
        let v = n.limbs[0];
        if v < 2 {
            return false;
        }
        for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            if v == p {
                return true;
            }
            if v % p == 0 {
                return false;
            }
        }
    } else {
        // Quick small-factor screen.
        for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            if n.rem(&Ubig::from_u64(p)).is_zero() {
                return false;
            }
        }
    }
    if !n.is_odd() {
        return false;
    }
    // n − 1 = d · 2^r.
    let n_minus_1 = n.sub(&Ubig::one());
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while !d.is_odd() {
        // Divide by two via shift: reuse shl on a reversed representation —
        // implement an inline right shift.
        let mut limbs = d.limbs.clone();
        let mut carry = 0u64;
        for l in limbs.iter_mut().rev() {
            let new_carry = *l & 1;
            *l = (*l >> 1) | (carry << 63);
            carry = new_carry;
        }
        d = Ubig { limbs };
        d.normalize();
        r += 1;
    }
    let ctx = MontgomeryCtx::new(n.clone());
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let a = Ubig::from_u64(a).rem(n);
        if a.is_zero() {
            continue;
        }
        let mut x = ctx.mod_pow(&a, &d);
        if x == Ubig::one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = ctx.mod_mul(&x, &x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bytes_roundtrip() {
        let n = Ubig::from_be_bytes(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11]);
        assert_eq!(n.to_be_bytes(), vec![0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11]);
        assert_eq!(Ubig::zero().to_be_bytes(), vec![0]);
    }

    #[test]
    fn hex_parse() {
        let n = Ubig::from_hex("ff");
        assert_eq!(n, Ubig::from_u64(255));
        let n = Ubig::from_hex("1_0000_0000_0000_0000".replace('_', "").as_str());
        assert_eq!(n.bit_len(), 65);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Ubig::from_hex("ffffffffffffffffffffffffffffffff");
        let b = Ubig::from_hex("123456789abcdef0123456789abcdef0");
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = Ubig::from_hex("ffffffffffffffff");
        let s = a.add(&Ubig::one());
        assert_eq!(s, Ubig::from_hex("10000000000000000"));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        Ubig::from_u64(1).sub(&Ubig::from_u64(2));
    }

    #[test]
    fn mul_known_values() {
        let a = Ubig::from_u64(u64::MAX);
        let sq = a.mul(&a);
        // (2^64 − 1)² = 2^128 − 2^65 + 1.
        let expected = Ubig::one()
            .shl(128)
            .sub(&Ubig::one().shl(65))
            .add(&Ubig::one());
        assert_eq!(sq, expected);
    }

    #[test]
    fn rem_basics() {
        let a = Ubig::from_u64(1000);
        assert_eq!(a.rem(&Ubig::from_u64(7)), Ubig::from_u64(1000 % 7));
        assert_eq!(Ubig::from_u64(5).rem(&Ubig::from_u64(7)), Ubig::from_u64(5));
    }

    #[test]
    fn rem_large() {
        let a = Ubig::from_hex("123456789abcdef0123456789abcdef0123456789abcdef0");
        let m = Ubig::from_hex("fedcba9876543211");
        let r = a.rem(&m);
        // Verify: a = q·m + r with r < m by re-multiplying is awkward
        // without division; instead check r < m and (a − r) mod m == 0.
        assert!(r.cmp_abs(&m) == Ordering::Less);
        let diff = a.sub(&r);
        assert!(diff.rem(&m).is_zero());
    }

    #[test]
    fn mod_pow_small_numbers() {
        let ctx = MontgomeryCtx::new(Ubig::from_u64(1000000007));
        assert_eq!(
            ctx.mod_pow(&Ubig::from_u64(2), &Ubig::from_u64(10)),
            Ubig::from_u64(1024)
        );
        assert_eq!(
            ctx.mod_pow(&Ubig::from_u64(3), &Ubig::from_u64(0)),
            Ubig::one()
        );
        // Fermat: a^(p−1) ≡ 1 (mod p).
        assert_eq!(
            ctx.mod_pow(&Ubig::from_u64(123456), &Ubig::from_u64(1000000006)),
            Ubig::one()
        );
    }

    #[test]
    fn mod_pow_matches_u128_reference() {
        let p = 0xffff_ffff_ffff_ffc5u64; // largest 64-bit prime
        let ctx = MontgomeryCtx::new(Ubig::from_u64(p));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let base: u64 = rng.gen_range(1..p);
            let exp: u64 = rng.gen();
            let expected = u128_mod_pow(base, exp, p);
            let got = ctx.mod_pow(&Ubig::from_u64(base), &Ubig::from_u64(exp));
            assert_eq!(got, Ubig::from_u64(expected), "base {base} exp {exp}");
        }
    }

    fn u128_mod_pow(mut base: u64, mut exp: u64, m: u64) -> u64 {
        let mut acc: u128 = 1;
        let mut b: u128 = u128::from(base % m);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc * b % u128::from(m);
            }
            b = b * b % u128::from(m);
            exp >>= 1;
        }
        base = acc as u64;
        base
    }

    #[test]
    fn mod_mul_matches_slow_path() {
        let m = Ubig::from_hex("f123456789abcdef123456789abcdef1");
        let ctx = MontgomeryCtx::new(m.clone());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = Ubig::random_below(&m, &mut rng);
            let b = Ubig::random_below(&m, &mut rng);
            assert_eq!(ctx.mod_mul(&a, &b), a.mul(&b).rem(&m));
        }
    }

    #[test]
    fn mod_pow2_matches_general_modexp() {
        let m = Ubig::from_hex("f123456789abcdef123456789abcdef1");
        let ctx = MontgomeryCtx::new(m);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let exp = Ubig::from_u64(rng.gen());
            assert_eq!(ctx.mod_pow2(&exp), ctx.mod_pow(&Ubig::from_u64(2), &exp));
        }
        assert_eq!(ctx.mod_pow2(&Ubig::zero()), Ubig::one());
    }

    #[test]
    fn mod_inv_prime_works() {
        let p = Ubig::from_u64(1000000007);
        let ctx = MontgomeryCtx::new(p.clone());
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let a = Ubig::random_below(&p, &mut rng);
            if a.is_zero() {
                continue;
            }
            let inv = ctx.mod_inv_prime(&a);
            assert_eq!(ctx.mod_mul(&a, &inv), Ubig::one());
        }
    }

    #[test]
    fn random_below_in_range_and_varied() {
        let bound = Ubig::from_u64(1000);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let v = Ubig::random_below(&bound, &mut rng);
            assert!(v.cmp_abs(&bound) == Ordering::Less);
            seen.insert(v.to_be_bytes());
        }
        assert!(seen.len() > 50, "sampling looks degenerate");
    }

    #[test]
    fn primality_small() {
        for p in [2u64, 3, 5, 7, 11, 101, 65537, 1000000007] {
            assert!(is_probable_prime(&Ubig::from_u64(p)), "{p}");
        }
        for c in [0u64, 1, 4, 9, 100, 65536, 1000000008] {
            assert!(!is_probable_prime(&Ubig::from_u64(c)), "{c}");
        }
    }

    #[test]
    fn primality_carmichael() {
        // 561, 1105, 1729 are Carmichael numbers (fool Fermat, not MR).
        for c in [561u64, 1105, 1729, 2465, 2821] {
            assert!(!is_probable_prime(&Ubig::from_u64(c)), "{c}");
        }
    }

    #[test]
    fn bit_len_and_bit() {
        let n = Ubig::from_u64(0b1011);
        assert_eq!(n.bit_len(), 4);
        assert!(n.bit(0) && n.bit(1) && !n.bit(2) && n.bit(3) && !n.bit(64));
    }

    #[test]
    fn bits_window_extraction() {
        let n = Ubig::from_hex("123456789abcdef0fedcba9876543210");
        for lo in [0usize, 1, 5, 60, 63, 64, 65, 120, 127, 200] {
            for count in [1usize, 4, 6, 17, 63, 64] {
                let mut expected = 0u64;
                for b in (0..count).rev() {
                    expected = (expected << 1) | u64::from(n.bit(lo + b));
                }
                assert_eq!(n.bits(lo, count), expected, "lo {lo} count {count}");
            }
        }
    }

    #[test]
    fn windowed_mod_pow_matches_reference() {
        let m = Ubig::from_hex("f123456789abcdef123456789abcdef1");
        let ctx = MontgomeryCtx::new(m.clone());
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let base = Ubig::random_below(&m, &mut rng);
            let exp = Ubig::random_below(&m, &mut rng);
            assert_eq!(ctx.mod_pow(&base, &exp), ctx.mod_pow_reference(&base, &exp));
        }
        // Degenerate exponents.
        let base = Ubig::from_u64(7);
        for e in [0u64, 1, 2, 3, 63, 64, 65] {
            let exp = Ubig::from_u64(e);
            assert_eq!(ctx.mod_pow(&base, &exp), ctx.mod_pow_reference(&base, &exp), "e {e}");
        }
    }

    #[test]
    fn cios_mod_mul_matches_reference() {
        let m = Ubig::from_hex("f123456789abcdef123456789abcdef1");
        let ctx = MontgomeryCtx::new(m.clone());
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..50 {
            let a = Ubig::random_below(&m, &mut rng);
            let b = Ubig::random_below(&m, &mut rng);
            let fast = ctx.mod_mul(&a, &b);
            assert_eq!(fast, ctx.mod_mul_reference(&a, &b));
            assert_eq!(fast, a.mul(&b).rem(&m));
        }
        assert_eq!(ctx.mod_mul(&Ubig::zero(), &Ubig::from_u64(5)), Ubig::zero());
    }

    #[test]
    fn mont_sqr_matches_mont_mul_at_every_width() {
        let mut rng = StdRng::seed_from_u64(45);
        for k in [1usize, 2, 16, 32] {
            // 2^(64k) − 159 at every width, plus MODP-1024 at k = 16.
            let mut moduli = vec![Ubig::one().shl(64 * k).sub(&Ubig::from_u64(159))];
            if k == 16 {
                moduli.push(Ubig::from_hex(crate::group::MODP_1024_HEX));
            }
            for m in &moduli {
                let ctx = MontgomeryCtx::new(m.clone());
                // An all-ones top limb over random low limbs (at k = 1
                // that operand exceeds n; the kernels must still agree).
                let mut ones_top: Vec<u64> = (0..k).map(|_| rng.gen()).collect();
                ones_top[k - 1] = u64::MAX;
                let operands = [
                    Ubig::zero(),
                    Ubig::one(),
                    m.sub(&Ubig::one()),
                    Ubig::from_limbs(&ones_top),
                    Ubig::random_below(m, &mut rng),
                ];
                for a in &operands {
                    // The dispatched kernels and the portable ones, whose
                    // squaring triangle the ADX arm never reaches.
                    let a_fixed = pad_limbs(a, k);
                    let (n, np) = (&ctx.n.limbs, ctx.n_prime);
                    let mut outs = vec![vec![0u64; k]; 4];
                    cios_mont_sqr(n, np, &a_fixed, &mut outs[0]);
                    cios_mont_mul(n, np, &a_fixed, &a_fixed, &mut outs[1]);
                    portable_mont_sqr(n, np, &a_fixed, &mut outs[2]);
                    portable_mont_mul(n, np, &a_fixed, &a_fixed, &mut outs[3]);
                    for out in &outs[1..] {
                        assert_eq!(&outs[0], out, "k {k} m {m} a {a}");
                    }
                }
            }
        }
    }

    /// `a·b mod n` through `portable_mont_mul` alone (into Montgomery
    /// form, multiply, back out), or through `portable_mont_sqr` when
    /// `b` is `None`.
    fn portable_mod_mul(ctx: &MontgomeryCtx, a: &Ubig, b: Option<&Ubig>) -> Ubig {
        let (n, np, k) = (&ctx.n.limbs, ctx.n_prime, ctx.k);
        let to_mont = |x: &Ubig| {
            let mut out = vec![0u64; k];
            portable_mont_mul(n, np, &pad_limbs(&x.rem(&ctx.n), k), &ctx.r2_fixed, &mut out);
            out
        };
        let am = to_mont(a);
        let mut prod = vec![0u64; k];
        match b {
            Some(b) => portable_mont_mul(n, np, &am, &to_mont(b), &mut prod),
            None => portable_mont_sqr(n, np, &am, &mut prod),
        }
        let mut out = vec![0u64; k];
        portable_mont_mul(n, np, &prod, &pad_limbs(&Ubig::one(), k), &mut out);
        Ubig::from_limbs(&out)
    }

    /// Two 1024-bit moduli: MODP-1024 (`n' = 1`) and the odd literal
    /// `2^1024 − 1093337` (`n' ≠ 1`, every limb above the lowest
    /// all-ones; Montgomery arithmetic needs no primality).
    fn moduli_1024() -> [MontgomeryCtx; 2] {
        let odd = Ubig::one().shl(1024).sub(&Ubig::from_u64(1_093_337));
        [Ubig::from_hex(crate::group::MODP_1024_HEX), odd].map(MontgomeryCtx::new)
    }

    /// Carry-heavy 16-limb Montgomery operands: 0, 1, n − 1, all-ones
    /// limbs (above n) and `R mod n`.
    fn edge_operands_1024(ctx: &MontgomeryCtx) -> Vec<Vec<u64>> {
        vec![
            vec![0; 16],
            pad_limbs(&Ubig::one(), 16),
            pad_limbs(&ctx.n.sub(&Ubig::one()), 16),
            vec![u64::MAX; 16],
            ctx.one_fixed.clone(),
        ]
    }

    #[test]
    fn portable_1024_kernels_match_reference() {
        // On a BMI2/ADX host `mod_mul` and `mod_pow` never reach the
        // portable 16-limb kernels, so they are pinned here directly.
        let mut rng = StdRng::seed_from_u64(47);
        for ctx in moduli_1024() {
            let m = ctx.modulus().clone();
            let mut operands = vec![Ubig::zero(), Ubig::one(), m.sub(&Ubig::one())];
            operands.extend((0..6).map(|_| Ubig::random_below(&m, &mut rng)));
            for a in &operands {
                for b in &operands {
                    let want = ctx.mod_mul_reference(a, b);
                    assert_eq!(portable_mod_mul(&ctx, a, Some(b)), want, "m {m} a {a} b {b}");
                }
                assert_eq!(portable_mod_mul(&ctx, a, None), ctx.mod_mul_reference(a, a));
            }
        }
    }

    #[test]
    fn adx_kernel_matches_portable_on_carry_heavy_operands() {
        if mont_kernel_1024() != "adx" {
            eprintln!("skipped: this CPU lacks BMI2/ADX; the portable kernels are the only path");
            return;
        }
        for ctx in moduli_1024() {
            let (n, np) = (&ctx.n.limbs, ctx.n_prime);
            let edges = edge_operands_1024(&ctx);
            for a in &edges {
                for b in &edges {
                    let (mut fast, mut want) = (vec![0u64; 16], vec![0u64; 16]);
                    cios_mont_mul(n, np, a, b, &mut fast);
                    portable_mont_mul(n, np, a, b, &mut want);
                    assert_eq!(fast, want, "n' {np:#x} a {a:x?} b {b:x?}");
                }
                let (mut fast, mut want) = (vec![0u64; 16], vec![0u64; 16]);
                cios_mont_sqr(n, np, a, &mut fast);
                portable_mont_sqr(n, np, a, &mut want);
                assert_eq!(fast, want, "n' {np:#x} a {a:x?}");
            }
        }
    }

    #[test]
    fn adx_kernel_matches_portable_on_random_operands() {
        if mont_kernel_1024() != "adx" {
            eprintln!("skipped: this CPU lacks BMI2/ADX; the portable kernels are the only path");
            return;
        }
        for ctx in moduli_1024() {
            let (n, np) = (&ctx.n.limbs, ctx.n_prime);
            let name = format!("adx_kernel_matches_portable_{np:x}");
            rand::check::cases(&name, 256, |rng| {
                // Full 16-limb words, so unreduced operands are covered too.
                let a: Vec<u64> = (0..16).map(|_| rng.gen()).collect();
                let b: Vec<u64> = (0..16).map(|_| rng.gen()).collect();
                let (mut fast, mut want) = (vec![0u64; 16], vec![0u64; 16]);
                cios_mont_mul(n, np, &a, &b, &mut fast);
                portable_mont_mul(n, np, &a, &b, &mut want);
                assert_eq!(fast, want);
                cios_mont_sqr(n, np, &a, &mut fast);
                portable_mont_sqr(n, np, &a, &mut want);
                assert_eq!(fast, want);
            });
        }
    }

    #[test]
    fn one_limb_kernel_matches_cios() {
        // The 129th bit of `a·b + m·n` matters most at 2^64 − 1.
        for n in [3u64, (1 << 32) - 5, (1 << 61) - 1, u64::MAX] {
            let ctx = MontgomeryCtx::new(Ubig::from_u64(n));
            let np = ctx.n_prime;
            rand::check::cases(&format!("one_limb_kernel_matches_cios_{n}"), 256, |rng| {
                // Unreduced operands too: both kernels must still agree.
                let (a, b): (u64, u64) = (rng.gen(), rng.gen());
                for (a, b) in [(a, b), (a % n, b % n), (n - 1, b % n), (u64::MAX, u64::MAX)] {
                    let mut want = [0u64];
                    portable_mont_mul(&[n], np, &[a], &[b], &mut want);
                    assert_eq!(mont_mul_1(n, np, a, b), want[0], "n {n} a {a} b {b}");
                }
            });
        }
    }

    #[test]
    fn squaring_exponentiations_match_reference_at_1024_bits() {
        let m = Ubig::from_hex(crate::group::MODP_1024_HEX);
        let ctx = MontgomeryCtx::new(m.clone());
        let mut rng = StdRng::seed_from_u64(46);
        let top = Ubig::one().shl(1023);
        let exps = [
            Ubig::one(),
            top.add(&Ubig::random_below(&top, &mut rng)),
            m.sub(&Ubig::one()),
            Ubig::one().shl(1024).sub(&Ubig::one()),
        ];
        let bases = [Ubig::random_below(&m, &mut rng), m.sub(&Ubig::one()), Ubig::zero()];
        for e in &exps {
            for b in &bases {
                assert_eq!(ctx.mod_pow(b, e), ctx.mod_pow_reference(b, e), "b {b} e {e}");
            }
            assert_eq!(ctx.mod_pow2(e), ctx.mod_pow_reference(&Ubig::from_u64(2), e), "e {e}");
        }
    }

    #[test]
    fn fixed_base_matches_general_modexp() {
        let m = Ubig::from_hex("f123456789abcdef123456789abcdef1");
        let ctx = MontgomeryCtx::new(m.clone());
        let base = Ubig::from_u64(2);
        let table = ctx.fixed_base_table(&base, m.bit_len(), 6);
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..20 {
            let exp = Ubig::random_below(&m, &mut rng);
            assert_eq!(ctx.pow_fixed_base(&table, &exp), ctx.mod_pow_reference(&base, &exp));
        }
        assert_eq!(ctx.pow_fixed_base(&table, &Ubig::zero()), Ubig::one());
        assert_eq!(ctx.pow_fixed_base(&table, &Ubig::one()), Ubig::from_u64(2));
        // An exponent wider than the table's coverage takes the fallback.
        let wide = Ubig::one().shl(m.bit_len() + 5);
        assert_eq!(ctx.pow_fixed_base(&table, &wide), ctx.mod_pow_reference(&base, &wide));
    }

    #[test]
    fn fixed_base_small_windows_and_single_limb() {
        // k = 1 and every window width exercise the CIOS edge cases.
        let p = 0xffff_ffff_ffff_ffc5u64;
        let ctx = MontgomeryCtx::new(Ubig::from_u64(p));
        let base = Ubig::from_u64(3);
        let mut rng = StdRng::seed_from_u64(34);
        for w in 1..=8usize {
            let table = ctx.fixed_base_table(&base, 64, w);
            for _ in 0..5 {
                let exp = Ubig::from_u64(rng.gen());
                assert_eq!(
                    ctx.pow_fixed_base(&table, &exp),
                    ctx.mod_pow_reference(&base, &exp),
                    "w {w}"
                );
            }
        }
    }

    #[test]
    fn display_hex() {
        assert_eq!(format!("{}", Ubig::from_u64(255)), "0xff");
        assert_eq!(format!("{}", Ubig::zero()), "0x0");
    }

    #[test]
    fn rem_matches_reference() {
        let mut rng = StdRng::seed_from_u64(41);
        let moduli = [
            Ubig::from_u64(7),
            Ubig::from_u64(u64::MAX),
            Ubig::from_hex("ffffffffffffffffffffffffffffff61"),
            Ubig::from_hex(crate::group::MODP_1024_HEX),
        ];
        for m in &moduli {
            for width_limbs in [1usize, 2, 16, 32] {
                let bound = Ubig::one().shl(width_limbs * 64);
                let a = Ubig::random_below(&bound, &mut rng);
                assert_eq!(a.rem(m), a.rem_reference(m), "a {a} m {m}");
            }
            // Exact multiples and boundary values.
            assert_eq!(m.rem(m), Ubig::zero());
            assert_eq!(m.mul(&Ubig::from_u64(12345)).rem(m), Ubig::zero());
            assert_eq!(m.sub(&Ubig::one()).rem(m), m.sub(&Ubig::one()));
            assert_eq!(Ubig::zero().rem(m), Ubig::zero());
        }
    }

    #[test]
    fn wide_modulus_beyond_cios_limit_falls_back() {
        // A 33-limb (2112-bit) odd modulus exceeds MAX_CIOS_LIMBS: the
        // scalar ctx must route through the mul-then-REDC fallback and
        // still agree with the reference, and so must `mod_pow_many`.
        let mut hex = String::from("1");
        hex.push_str(&"0".repeat(527)); // 2^2108
        let m = Ubig::from_hex(&hex).add(&Ubig::from_u64(7)); // odd
        assert!(m.bit_len() > 64 * MAX_CIOS_LIMBS);
        let ctx = MontgomeryCtx::new(m.clone());
        let mut rng = StdRng::seed_from_u64(44);
        let base = Ubig::random_below(&m, &mut rng);
        let exp = Ubig::from_u64(rng.gen());
        assert_eq!(ctx.mod_pow(&base, &exp), ctx.mod_pow_reference(&base, &exp));
        assert_eq!(ctx.mod_mul(&base, &base), ctx.mod_mul_reference(&base, &base));
        let k = ctx.limbs();
        let bases: Vec<Ubig> = (0..4).map(|_| Ubig::random_below(&m, &mut rng)).collect();
        let exps: Vec<Ubig> = (0..4).map(|_| Ubig::from_u64(rng.gen())).collect();
        let mut flat_bases = vec![0u64; 4 * k];
        for (b, o) in bases.iter().zip(flat_bases.chunks_exact_mut(k)) {
            b.write_limbs(o);
        }
        let flat_exps: Vec<u64> = exps.iter().map(|e| e.as_limbs()[0]).collect();
        let mut got = vec![0u64; 4 * k];
        ctx.mod_pow_many(&flat_bases, &flat_exps, &mut got);
        for (i, (b, e)) in bases.iter().zip(&exps).enumerate() {
            let got = Ubig::from_limbs(&got[i * k..][..k]);
            assert_eq!(got, ctx.mod_pow_reference(b, e), "pair {i}");
        }
    }
}
