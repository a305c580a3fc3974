//! Arithmetic in GF(2^255 − 19), the field under edwards25519 and
//! ristretto255 ([`crate::ristretto`]).
//!
//! An element is five little-endian 51-bit limbs, `Σ lᵢ·2^(51i)`, and a
//! product is 25 `u128` partial products folded through
//! `2^255 ≡ 19`. Limbs may exceed 51 bits between operations: every
//! [`Fe::mul`], [`Fe::square`] and [`Fe::sub`] output has limbs below
//! 2^52, a sum of two such outputs stays below 2^53, and a product
//! accepts limbs below 2^54. Only [`Fe::to_bytes`] produces the
//! canonical value in `[0, p)`.
//!
//! No operation branches on, or indexes memory by, an element's value:
//! selects and negations run under all-ones or all-zero masks.

use std::ops::{Add, Mul, Neg, Sub};

const MASK: u64 = (1 << 51) - 1;

/// A field element mod `p = 2^255 − 19`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fe(pub(crate) [u64; 5]);

/// `0` or `u64::MAX` from a bit, through [`std::hint::black_box`] so the
/// optimizer cannot turn a masked select back into a branch.
#[inline]
pub(crate) fn mask(bit: u64) -> u64 {
    std::hint::black_box(bit & 1).wrapping_neg()
}

impl Fe {
    pub(crate) const ZERO: Fe = Fe([0; 5]);
    pub(crate) const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Carries every limb down to 51 bits, folding the top carry back in
    /// times 19: the output limbs are below 2^51 + 2^18.
    #[inline]
    fn carry(l: [u64; 5]) -> Fe {
        let c = [l[0] >> 51, l[1] >> 51, l[2] >> 51, l[3] >> 51, l[4] >> 51];
        Fe([
            (l[0] & MASK) + c[4] * 19,
            (l[1] & MASK) + c[0],
            (l[2] & MASK) + c[1],
            (l[3] & MASK) + c[2],
            (l[4] & MASK) + c[3],
        ])
    }

    /// The five column sums of a product, carried to limbs below 2^52.
    /// Every column is below 2^115 for inputs below 2^54, so the carry
    /// out of the top column times 19 still fits a `u64`.
    #[inline]
    fn carry_wide(mut c: [u128; 5]) -> Fe {
        c[1] += c[0] >> 51;
        c[2] += c[1] >> 51;
        c[3] += c[2] >> 51;
        c[4] += c[3] >> 51;
        let r0 = (c[0] as u64 & MASK) + (c[4] >> 51) as u64 * 19;
        Fe([
            r0 & MASK,
            (c[1] as u64 & MASK) + (r0 >> 51),
            c[2] as u64 & MASK,
            c[3] as u64 & MASK,
            c[4] as u64 & MASK,
        ])
    }

    /// The element whose little-endian encoding is `bytes`, with bit 255
    /// ignored: values in `[p, 2^255)` are accepted unreduced, so a
    /// decoder that needs the canonical form re-encodes and compares.
    #[inline]
    pub(crate) fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        Fe([
            word(0) & MASK,
            (word(6) >> 3) & MASK,
            (word(12) >> 6) & MASK,
            (word(19) >> 1) & MASK,
            (word(24) >> 12) & MASK,
        ])
    }

    /// The canonical little-endian encoding of the value in `[0, p)`.
    #[inline]
    pub(crate) fn to_bytes(self) -> [u8; 32] {
        let mut l = Fe::carry(Fe::carry(self.0).0).0;
        // The value is below 2p now; q is 1 exactly when it is ≥ p, that
        // is when adding 19 carries out of bit 255.
        let mut q = (l[0] + 19) >> 51;
        for &li in &l[1..] {
            q = (li + q) >> 51;
        }
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK;
        }
        l[4] &= MASK;
        let words = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(8).zip(words) {
            o.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// `self²`, with the cross terms doubled once instead of computed
    /// twice.
    #[inline]
    pub(crate) fn square(self) -> Fe {
        let a = self.0;
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let (a3_19, a4_19) = (a[3] * 19, a[4] * 19);
        let (d0, d1, d2) = (2 * a[0], 2 * a[1], 2 * a[2]);
        Fe::carry_wide([
            m(a[0], a[0]) + m(d1, a4_19) + m(d2, a3_19),
            m(a[3], a3_19) + m(d0, a[1]) + m(d2, a4_19),
            m(a[1], a[1]) + m(d0, a[2]) + m(2 * a[4], a3_19),
            m(a[4], a4_19) + m(d0, a[3]) + m(d1, a[2]),
            m(a[2], a[2]) + m(d0, a[4]) + m(d1, a[3]),
        ])
    }

    /// `self^(2^k)`, for `k ≥ 1`.
    #[inline]
    fn pow2k(self, k: u32) -> Fe {
        (0..k).fold(self, |x, _| x.square())
    }

    /// `(self^(2^250 − 1), self^11)`, the shared head of the inversion
    /// and square-root exponent chains.
    #[inline]
    fn pow22501(self) -> (Fe, Fe) {
        let t2 = self.square();
        let t9 = self * t2.pow2k(2);
        let t11 = t2 * t9;
        let t5 = t9 * t11.square(); // 2^5 − 1
        let t10 = t5.pow2k(5) * t5; // 2^10 − 1
        let t20 = t10.pow2k(10) * t10;
        let t40 = t20.pow2k(20) * t20;
        let t50 = t40.pow2k(10) * t10;
        let t100 = t50.pow2k(50) * t50;
        let t200 = t100.pow2k(100) * t100;
        (t200.pow2k(50) * t50, t11)
    }

    /// `self^(p − 2)`, the inverse of a non-zero element (0 maps to 0).
    #[inline]
    pub(crate) fn invert(self) -> Fe {
        let (t250, t11) = self.pow22501();
        t250.pow2k(5) * t11
    }

    /// `self^((p − 5)/8) = self^(2^252 − 3)`.
    #[inline]
    fn pow_p58(self) -> Fe {
        self * self.pow22501().0.pow2k(2)
    }

    /// Low bit of the canonical encoding: RFC 9496's `IS_NEGATIVE`.
    #[inline]
    pub(crate) fn is_negative(self) -> u64 {
        u64::from(self.to_bytes()[0] & 1)
    }

    /// 1 when the canonical values are equal, else 0, without a branch.
    #[inline]
    pub(crate) fn ct_eq(self, other: Fe) -> u64 {
        let (a, b) = (self.to_bytes(), other.to_bytes());
        let diff = a
            .iter()
            .zip(&b)
            .fold(0u64, |acc, (x, y)| acc | u64::from(x ^ y));
        1 ^ ((diff | diff.wrapping_neg()) >> 63)
    }

    /// 1 for the zero element, else 0.
    #[inline]
    pub(crate) fn is_zero(self) -> u64 {
        self.ct_eq(Fe::ZERO)
    }

    /// `b` where `m` is all ones, else `a`, limb by limb under the mask.
    #[inline]
    pub(crate) fn select(a: Fe, b: Fe, m: u64) -> Fe {
        Fe(std::array::from_fn(|i| a.0[i] ^ (m & (a.0[i] ^ b.0[i]))))
    }

    /// `−self` where `m` is all ones, else `self`.
    #[inline]
    pub(crate) fn neg_if(self, m: u64) -> Fe {
        Fe::select(self, -self, m)
    }

    /// RFC 9496's `CT_ABS`: the non-negative one of `±self`.
    #[inline]
    pub(crate) fn abs(self) -> Fe {
        self.neg_if(mask(self.is_negative()))
    }

    /// RFC 9496's `SQRT_RATIO_M1(u, v)`: `(1, √(u/v))` when `u/v` is a
    /// square, `(1, 0)` when `u = 0`, else `(0, √(i·u/v))`, the root
    /// always non-negative.
    #[inline]
    pub(crate) fn sqrt_ratio_m1(u: Fe, v: Fe) -> (u64, Fe) {
        let v3 = v.square() * v;
        let v7 = v3.square() * v;
        let r = (u * v3) * (u * v7).pow_p58();
        let check = v * r.square();
        let neg_u = -u;
        let correct = check.ct_eq(u);
        let flipped = check.ct_eq(neg_u);
        let flipped_i = check.ct_eq(neg_u * SQRT_M1);
        let r = Fe::select(r, r * SQRT_M1, mask(flipped | flipped_i));
        (correct | flipped, r.abs())
    }
}

impl Add for Fe {
    type Output = Fe;
    /// Limb-wise sum, not carried: see the module's limb bounds.
    #[inline]
    fn add(self, b: Fe) -> Fe {
        Fe(std::array::from_fn(|i| self.0[i] + b.0[i]))
    }
}

impl Sub for Fe {
    type Output = Fe;
    /// `self − b` as `self + 16p − b`, carried, for `b` limbs below 2^55.
    #[inline]
    fn sub(self, b: Fe) -> Fe {
        const P16: [u64; 5] = [(MASK - 18) << 4, MASK << 4, MASK << 4, MASK << 4, MASK << 4];
        Fe::carry(std::array::from_fn(|i| self.0[i] + P16[i] - b.0[i]))
    }
}

impl Neg for Fe {
    type Output = Fe;
    #[inline]
    fn neg(self) -> Fe {
        Fe::ZERO - self
    }
}

impl Mul for Fe {
    type Output = Fe;
    #[inline]
    fn mul(self, b: Fe) -> Fe {
        let (a, b) = (self.0, b.0);
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        let b19 = [0, b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19];
        Fe::carry_wide([
            m(a[0], b[0]) + m(a[4], b19[1]) + m(a[3], b19[2]) + m(a[2], b19[3]) + m(a[1], b19[4]),
            m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b19[2]) + m(a[3], b19[3]) + m(a[2], b19[4]),
            m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b19[3]) + m(a[3], b19[4]),
            m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b19[4]),
            m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]),
        ])
    }
}

/// `√−1 = 2^((p−1)/4)`, the non-negative root.
pub(crate) const SQRT_M1: Fe = Fe([
    0x61b274a0ea0b0,
    0x0d5a5fc8f189d,
    0x7ef5e9cbd0c60,
    0x78595a6804c9e,
    0x2b8324804fc1d,
]);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bigint::Ubig;
    use rand::Rng;

    /// `p = 2^255 − 19`.
    pub(crate) fn p() -> Ubig {
        Ubig::one().shl(255).sub(&Ubig::from_u64(19))
    }

    /// The canonical value of `x` as a `Ubig`.
    pub(crate) fn value(x: Fe) -> Ubig {
        let mut be = x.to_bytes();
        be.reverse();
        Ubig::from_be_bytes(&be)
    }

    /// The element of the value `v < 2^255`.
    pub(crate) fn fe(v: &Ubig) -> Fe {
        let mut le = v.to_be_bytes_padded(32);
        le.reverse();
        Fe::from_bytes(&le.try_into().expect("32 bytes"))
    }

    fn random_bytes(rng: &mut rand::rngs::StdRng) -> [u8; 32] {
        std::array::from_fn(|_| rng.gen())
    }

    /// Field inputs at the edges: 0, 1, 2, p−1, p−2, and the unreduced
    /// encodings of p, p+1 and 2^255 − 1.
    fn edges() -> Vec<[u8; 32]> {
        let p = p();
        let mut out = Vec::new();
        for v in [
            Ubig::zero(),
            Ubig::one(),
            Ubig::from_u64(2),
            p.sub(&Ubig::one()),
            p.sub(&Ubig::from_u64(2)),
            p.clone(),
            p.add(&Ubig::one()),
            Ubig::one().shl(255).sub(&Ubig::one()),
        ] {
            let mut le = v.to_be_bytes_padded(32);
            le.reverse();
            out.push(le.try_into().expect("32 bytes"));
        }
        out
    }

    fn check_ops(mut a: [u8; 32], mut b: [u8; 32]) {
        // `from_bytes` ignores bit 255, as RFC 9496 decoding does.
        a[31] &= 0x7f;
        b[31] &= 0x7f;
        let p = p();
        let (x, y) = (Fe::from_bytes(&a), Fe::from_bytes(&b));
        let mut le = a;
        le.reverse();
        let xv = Ubig::from_be_bytes(&le).rem(&p);
        le = b;
        le.reverse();
        let yv = Ubig::from_be_bytes(&le).rem(&p);
        assert_eq!(value(x), xv, "decode {xv}");
        assert_eq!(value(x * y), xv.mul(&yv).rem(&p), "{xv} * {yv}");
        assert_eq!(value(x.square()), xv.mul(&xv).rem(&p), "{xv}^2");
        assert_eq!(value(x + y), xv.mod_add(&yv, &p), "{xv} + {yv}");
        assert_eq!(value(x - y), xv.add(&p).sub(&yv).rem(&p), "{xv} - {yv}");
        assert_eq!(value(-x), p.sub(&xv).rem(&p), "-{xv}");
        assert_eq!(x.ct_eq(y), u64::from(xv == yv));
        assert_eq!(x.is_negative(), u64::from(xv.is_odd()));
        // The unreduced sum of two products feeds a product.
        let z = (x * y + x.square()) * (x - y);
        let zv = xv
            .mul(&yv)
            .add(&xv.mul(&xv))
            .mul(&xv.add(&p).sub(&yv))
            .rem(&p);
        assert_eq!(value(z), zv);
    }

    #[test]
    fn field_ops_match_ubig_at_the_edges() {
        let edges = edges();
        for &a in &edges {
            for &b in &edges {
                check_ops(a, b);
            }
        }
    }

    #[test]
    fn field_ops_match_ubig_on_random_elements() {
        rand::check::cases("field_ops_match_ubig_on_random_elements", 256, |rng| {
            check_ops(random_bytes(rng), random_bytes(rng));
        });
    }

    #[test]
    fn inversion_and_square_roots_match_ubig() {
        let p = p();
        rand::check::cases("inversion_and_square_roots_match_ubig", 32, |rng| {
            let (u, v) = (
                Fe::from_bytes(&random_bytes(rng)),
                Fe::from_bytes(&random_bytes(rng)),
            );
            let uv = value(u);
            assert_eq!(value(u.invert()), uv.mod_inv_prime(&p), "1/{uv}");
            // u/v is a square exactly when Euler's criterion says so.
            let ratio = uv.mul(&value(v).mod_inv_prime(&p)).rem(&p);
            let euler = ratio.mod_pow(&p.sub(&Ubig::one()).shr(1), &p);
            let (was_square, r) = Fe::sqrt_ratio_m1(u, v);
            assert_eq!(
                was_square,
                u64::from(euler == Ubig::one()),
                "square {ratio}"
            );
            assert_eq!(r.is_negative(), 0);
            let want = if was_square == 1 {
                ratio.clone()
            } else {
                ratio.mul(&value(SQRT_M1)).rem(&p)
            };
            assert_eq!(value(r.square()), want, "root of {ratio}");
        });
        let (was_square, r) = Fe::sqrt_ratio_m1(Fe::ZERO, Fe::ONE);
        assert_eq!((was_square, r.is_zero()), (1, 1));
    }

    #[test]
    fn sqrt_m1_is_two_to_the_quarter_order() {
        let p = p();
        let root = Ubig::from_u64(2).mod_pow(&p.sub(&Ubig::one()).shr(2), &p);
        assert_eq!(value(SQRT_M1), root);
        assert_eq!(value(SQRT_M1.square()), p.sub(&Ubig::one()));
        assert_eq!(SQRT_M1.is_negative(), 0);
    }
}
