//! ristretto255 (RFC 9496): the prime-order group the OT runs over.
//!
//! Points live on edwards25519 (`−x² + y² = 1 + d·x²y²` over
//! GF(2^255 − 19), [`crate::field`]) in extended coordinates
//! `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z`, `xy = T/Z`. The curve has
//! order `8ℓ`; ristretto255 is the quotient by its 4-torsion restricted
//! to the even points, so every element has prime order `ℓ` and a
//! unique 32-byte encoding. A prime order leaves no subgroup or
//! character for a malicious `M_A` to read choice bits from, and
//! [`decode`] accepts only canonical encodings.
//!
//! Scalars are four little-endian `u64` limbs below
//! `ℓ = 2^252 + 27742317777372353535851937790883648493`.
//!
//! Constant time: both scalar multiplications use fixed signed radix-16
//! windows, and each window reads its table entry by a masked scan of
//! all eight entries with a masked negation, so neither a branch nor a
//! load address depends on a scalar. [`encode`] and the field
//! operations run under masks too. [`decode`] reads public bytes and
//! may branch.

use crate::field::{mask, Fe, SQRT_M1};
use std::sync::OnceLock;

/// `d = −121665/121666`.
const D: Fe = Fe([
    0x34dca135978a3,
    0x1a8283b156ebd,
    0x5e7a26001c029,
    0x739c663a03cbb,
    0x52036cee2b6ff,
]);
/// `2d`.
const D2: Fe = Fe([
    0x69b9426b2f159,
    0x35050762add7a,
    0x3cf44c0038052,
    0x6738cc7407977,
    0x2406d9dc56dff,
]);
/// `1/√(a − d)` with `a = −1`, the non-negative root.
const INVSQRT_A_MINUS_D: Fe = Fe([
    0x0fdaa805d40ea,
    0x2eb482e57d339,
    0x007610274bc58,
    0x6510b613dc8ff,
    0x786c8905cfaff,
]);

/// `ℓ`, the group order, little-endian.
pub(crate) const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0,
    0x1000000000000000,
];
/// `−ℓ⁻¹ mod 2^64`, the Montgomery constant of `ℓ`.
const L_NPRIME: u64 = 0xd2b51da312547e1b;
/// `2^512 mod ℓ`: Montgomery multiplication by it undoes one `2^−256`.
const R2: [u64; 4] = [
    0xa40611e3449c0f01,
    0xd00e1ba768859347,
    0xceec73d217f5be65,
    0x0399411b7c309a3d,
];

/// A point of edwards25519 in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// The generator `B`: the point with `y = 4/5` and non-negative `x`.
pub(crate) const BASEPOINT: Point = Point {
    x: Fe([
        0x62d608f25d51a,
        0x412a4b4f6592a,
        0x75b7171a4b31d,
        0x1ff60527118fe,
        0x216936d3cd6e5,
    ]),
    y: Fe([
        0x6666666666658,
        0x4cccccccccccc,
        0x1999999999999,
        0x3333333333333,
        0x6666666666666,
    ]),
    z: Fe::ONE,
    t: Fe([
        0x68ab3a5b7dda3,
        0x00eea2a5eadbb,
        0x2af8df483c27e,
        0x332b375274732,
        0x67875f0fd78b7,
    ]),
};

/// `(X : Y : Z : T)` of the completed (P¹ × P¹) model, `x = X/Z` and
/// `y = Y/T`: what an addition or a doubling produces before it is
/// mapped back.
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point as `(Y + X, Y − X, Z, 2d·T)`, the operand form of an
/// addition.
#[derive(Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// An affine point as `(y + x, y − x, 2d·xy)`, the comb's entry form:
/// one multiplication fewer per addition than [`Niels`].
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Completed {
    fn to_extended(&self) -> Point {
        Point {
            x: self.x * self.t,
            y: self.y * self.z,
            z: self.z * self.t,
            t: self.x * self.y,
        }
    }

    /// `2·(X : Y : Z)` from the projective part of the result, without
    /// the `T` product a doubling does not read.
    fn double_projective(&self) -> Completed {
        let (x, y, z) = (self.x * self.t, self.y * self.z, self.z * self.t);
        double(x, y, z)
    }
}

/// The doubling of the projective point `(x : y : z)`, as completed.
fn double(x: Fe, y: Fe, z: Fe) -> Completed {
    let xx = x.square();
    let yy = y.square();
    let zz = z.square();
    let zz2 = zz + zz;
    let yy_plus_xx = yy + xx;
    let yy_minus_xx = yy - xx;
    Completed {
        x: (x + y).square() - yy_plus_xx,
        y: yy_plus_xx,
        z: yy_minus_xx,
        t: zz2 - yy_minus_xx,
    }
}

impl Point {
    pub(crate) const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    fn to_niels(self) -> Niels {
        Niels {
            y_plus_x: self.y + self.x,
            y_minus_x: self.y - self.x,
            z: self.z,
            t2d: self.t * D2,
        }
    }

    fn add_niels(&self, q: &Niels) -> Completed {
        let pp = (self.y + self.x) * q.y_plus_x;
        let mm = (self.y - self.x) * q.y_minus_x;
        let tt2d = self.t * q.t2d;
        let zz = self.z * q.z;
        let zz2 = zz + zz;
        Completed {
            x: pp - mm,
            y: pp + mm,
            z: zz2 + tt2d,
            t: zz2 - tt2d,
        }
    }

    fn add_affine(&self, q: &AffineNiels) -> Completed {
        let pp = (self.y + self.x) * q.y_plus_x;
        let mm = (self.y - self.x) * q.y_minus_x;
        let txy2d = self.t * q.xy2d;
        let z2 = self.z + self.z;
        Completed {
            x: pp - mm,
            y: pp + mm,
            z: z2 + txy2d,
            t: z2 - txy2d,
        }
    }

    /// `self + q`.
    pub(crate) fn add(&self, q: &Point) -> Point {
        self.add_niels(&q.to_niels()).to_extended()
    }

    /// `2^(4)·self`: four doublings, the last one back to extended form.
    fn times16(&self) -> Point {
        let mut c = double(self.x, self.y, self.z);
        for _ in 0..3 {
            c = c.double_projective();
        }
        c.to_extended()
    }

    /// `2·self`.
    #[cfg(test)]
    pub(crate) fn double(&self) -> Point {
        double(self.x, self.y, self.z).to_extended()
    }

    /// `−self`.
    #[cfg(test)]
    pub(crate) fn neg(&self) -> Point {
        Point {
            x: -self.x,
            y: self.y,
            z: self.z,
            t: -self.t,
        }
    }

    /// The point as words, `X ‖ Y ‖ Z ‖ T`, five limbs each: the form the
    /// OT's flat batches hold ([`crate::group::Group::point_words`]).
    pub(crate) fn to_words(self, out: &mut [u64]) {
        for (o, f) in out
            .chunks_exact_mut(5)
            .zip([self.x, self.y, self.z, self.t])
        {
            o.copy_from_slice(&f.0);
        }
    }

    /// The inverse of [`Point::to_words`].
    pub(crate) fn from_words(w: &[u64]) -> Point {
        let f = |i: usize| Fe(w[5 * i..5 * i + 5].try_into().expect("5 limbs"));
        Point {
            x: f(0),
            y: f(1),
            z: f(2),
            t: f(3),
        }
    }
}

/// A table entry form: its identity, a masked select and a masked
/// negation.
trait Entry: Copy {
    const IDENTITY: Self;
    fn select(a: &Self, b: &Self, m: u64) -> Self;
    fn neg_if(&self, m: u64) -> Self;
}

impl Entry for Niels {
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        z: Fe::ONE,
        t2d: Fe::ZERO,
    };

    fn select(a: &Niels, b: &Niels, m: u64) -> Niels {
        Niels {
            y_plus_x: Fe::select(a.y_plus_x, b.y_plus_x, m),
            y_minus_x: Fe::select(a.y_minus_x, b.y_minus_x, m),
            z: Fe::select(a.z, b.z, m),
            t2d: Fe::select(a.t2d, b.t2d, m),
        }
    }

    /// `−self` where `m` is all ones: `Y ± X` swap and `2dT` negates.
    fn neg_if(&self, m: u64) -> Niels {
        Niels {
            y_plus_x: Fe::select(self.y_plus_x, self.y_minus_x, m),
            y_minus_x: Fe::select(self.y_minus_x, self.y_plus_x, m),
            z: self.z,
            t2d: self.t2d.neg_if(m),
        }
    }
}

impl Entry for AffineNiels {
    const IDENTITY: AffineNiels = AffineNiels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    fn select(a: &AffineNiels, b: &AffineNiels, m: u64) -> AffineNiels {
        AffineNiels {
            y_plus_x: Fe::select(a.y_plus_x, b.y_plus_x, m),
            y_minus_x: Fe::select(a.y_minus_x, b.y_minus_x, m),
            xy2d: Fe::select(a.xy2d, b.xy2d, m),
        }
    }

    fn neg_if(&self, m: u64) -> AffineNiels {
        AffineNiels {
            y_plus_x: Fe::select(self.y_plus_x, self.y_minus_x, m),
            y_minus_x: Fe::select(self.y_minus_x, self.y_plus_x, m),
            xy2d: self.xy2d.neg_if(m),
        }
    }
}

/// Entry `|digit|` of a table of `1·P … 8·P` (the identity for 0),
/// negated when `digit < 0`: every entry is read and merged under a
/// mask, so the load pattern is the same for every digit.
fn lookup<T: Entry>(table: &[T; 8], digit: i8) -> T {
    let neg = u64::from(digit as u8 >> 7);
    let abs = (i64::from(digit) ^ -(neg as i64)) + neg as i64;
    let mut out = T::IDENTITY;
    for (j, entry) in (1i64..).zip(table) {
        let diff = (abs ^ j) as u64;
        let eq = 1 ^ ((diff | diff.wrapping_neg()) >> 63);
        out = T::select(&out, entry, mask(eq));
    }
    out.neg_if(mask(neg))
}

/// The 64 signed radix-16 digits `dᵢ ∈ [−8, 8]` of a scalar below 2^255,
/// `Σ dᵢ·16^i`, recoded by carries with no branch.
fn radix16(s: &[u64; 4]) -> [i8; 64] {
    let mut d = [0i8; 64];
    for (i, di) in d.iter_mut().enumerate() {
        *di = ((s[i / 16] >> (4 * (i % 16))) & 15) as i8;
    }
    for i in 0..63 {
        let carry = (d[i] + 8) >> 4;
        d[i] -= carry << 4;
        d[i + 1] += carry;
    }
    d
}

/// `s·P` for any point `P`: a table of `1·P … 8·P`, then per digit from
/// the top four doublings and one addition of a looked-up entry. The
/// sum stays completed between windows, whose doublings read only its
/// projective part.
pub(crate) fn mul(p: &Point, s: &[u64; 4]) -> Point {
    let first = p.to_niels();
    let mut table = [first; 8];
    let mut multiple = *p;
    for entry in table.iter_mut().skip(1) {
        multiple = multiple.add_niels(&first).to_extended();
        *entry = multiple.to_niels();
    }
    let digits = radix16(s);
    let mut acc = Point::IDENTITY.add_niels(&lookup(&table, digits[63]));
    for &d in digits[..63].iter().rev() {
        let mut c = acc.double_projective();
        for _ in 0..3 {
            c = c.double_projective();
        }
        acc = c.to_extended().add_niels(&lookup(&table, d));
    }
    acc.to_extended()
}

/// A fixed base's comb: row `i` holds `j·16^(2i)·P` for `j = 1…8`, as
/// affine entries (32 × 8 × 120 bytes = 30 KiB).
pub(crate) struct Comb([[AffineNiels; 8]; 32]);

impl Comb {
    /// The comb of `base`: 256 additions and 248 doublings, then one
    /// inversion for all 256 `Z` (Montgomery's trick).
    pub(crate) fn new(base: &Point) -> Comb {
        let mut points = Vec::with_capacity(32 * 8);
        let mut row_base = *base;
        for _ in 0..32 {
            let mut multiple = row_base;
            for _ in 0..8 {
                points.push(multiple);
                multiple = multiple.add(&row_base);
            }
            row_base = row_base.times16().times16();
        }
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = Fe::ONE;
        for p in &points {
            prefix.push(acc);
            acc = acc * p.z;
        }
        let mut inv = acc.invert();
        let mut rows = [[<AffineNiels as Entry>::IDENTITY; 8]; 32];
        for (i, p) in points.iter().enumerate().rev() {
            let z_inv = inv * prefix[i];
            inv = inv * p.z;
            let (x, y) = (p.x * z_inv, p.y * z_inv);
            rows[i / 8][i % 8] = AffineNiels {
                y_plus_x: y + x,
                y_minus_x: y - x,
                xy2d: x * y * D2,
            };
        }
        Comb(rows)
    }

    /// `s·P` through the comb of `P`: the odd digits' entries summed,
    /// times 16, plus the even digits' entries. 64 additions and four
    /// doublings.
    pub(crate) fn mul(&self, s: &[u64; 4]) -> Point {
        let digits = radix16(s);
        let pick = |i: usize| lookup(&self.0[i / 2], digits[i]);
        let mut acc = Point::IDENTITY;
        for i in (1..64).step_by(2) {
            acc = acc.add_affine(&pick(i)).to_extended();
        }
        acc = acc.times16();
        for i in (0..64).step_by(2) {
            acc = acc.add_affine(&pick(i)).to_extended();
        }
        acc
    }
}

/// `s·B` through the generator's comb, built once per process.
pub(crate) fn mul_base(s: &[u64; 4]) -> Point {
    static COMB: OnceLock<Comb> = OnceLock::new();
    COMB.get_or_init(|| Comb::new(&BASEPOINT)).mul(s)
}

/// The canonical 32-byte encoding of the class of `p` (RFC 9496 §4.3.2),
/// with no branch on the point.
pub(crate) fn encode(p: &Point) -> [u8; 32] {
    let u1 = (p.z + p.y) * (p.z - p.y);
    let u2 = p.x * p.y;
    let (_, invsqrt) = Fe::sqrt_ratio_m1(Fe::ONE, u1 * u2.square());
    encode_with(p, invsqrt)
}

/// RFC 9496 §4.3.2 after the inverse square root: `invsqrt` is
/// `±1/√(u₁·u₂²)`, either sign.
fn encode_with(p: &Point, invsqrt: Fe) -> [u8; 32] {
    let u1 = (p.z + p.y) * (p.z - p.y);
    let u2 = p.x * p.y;
    let den1 = invsqrt * u1;
    let den2 = invsqrt * u2;
    let z_inv = den1 * den2 * p.t;
    let rotate = mask((p.t * z_inv).is_negative());
    let x = Fe::select(p.x, p.y * SQRT_M1, rotate);
    let y = Fe::select(p.y, p.x * SQRT_M1, rotate);
    let den_inv = Fe::select(den2, den1 * INVSQRT_A_MINUS_D, rotate);
    let y = y.neg_if(mask((x * z_inv).is_negative()));
    (den_inv * (p.z - y)).abs().to_bytes()
}

/// The encodings of `2·pᵢ` for every point of `points`, into `out`,
/// each equal to [`encode`] of the doubled point but with one field
/// inversion for the whole batch instead of an inverse square root per
/// point.
///
/// For `Q = 2P` doubled through the completed `(Cx : Cy : Cz : Ct)`,
/// encode's radicand `u₁·u₂²` is `w²·(a − d)` with `w = Cx·Cz·u₂`, so
/// `1/√(u₁·u₂²) = ±INVSQRT_A_MINUS_D / w`, and encode's final `CT_ABS`
/// removes the sign. The `w` are inverted together (Montgomery's trick).
/// `w` is zero only when `u₂` is, for a `Q` in the 4-torsion, whose
/// encoding is 0 whatever the root: it stands in as 1, under a mask.
pub(crate) fn encode_doubled(points: &[Point], out: &mut [[u8; 32]]) {
    let doubled: Vec<(Point, Fe)> = points
        .iter()
        .map(|p| {
            let c = double(p.x, p.y, p.z);
            let q = c.to_extended();
            let w = c.x * c.z * (q.x * q.y);
            (q, Fe::select(w, Fe::ONE, mask(w.is_zero())))
        })
        .collect();
    let mut prefix = Vec::with_capacity(doubled.len());
    let mut acc = Fe::ONE;
    for (_, w) in &doubled {
        prefix.push(acc);
        acc = acc * *w;
    }
    let mut inv = acc.invert();
    for (i, (q, w)) in doubled.iter().enumerate().rev() {
        out[i] = encode_with(q, inv * prefix[i] * INVSQRT_A_MINUS_D);
        inv = inv * *w;
    }
}

/// The point of a canonical encoding (RFC 9496 §4.3.1), or `None` for
/// `s ≥ p`, a negative `s`, a non-square, and the identity (`s = 0`),
/// which no honest OT party sends.
pub(crate) fn decode(bytes: &[u8; 32]) -> Option<Point> {
    let s = Fe::from_bytes(bytes);
    if s.to_bytes() != *bytes || s.is_negative() == 1 || s.is_zero() == 1 {
        return None;
    }
    let ss = s.square();
    let u1 = Fe::ONE - ss;
    let u2 = Fe::ONE + ss;
    let u2_sqr = u2.square();
    let v = -(D * u1.square()) - u2_sqr;
    let (was_square, invsqrt) = Fe::sqrt_ratio_m1(Fe::ONE, v * u2_sqr);
    let den_x = invsqrt * u2;
    let den_y = invsqrt * den_x * v;
    let x = (s + s) * den_x;
    let x = x.abs();
    let y = u1 * den_y;
    let t = x * y;
    if was_square == 0 || t.is_negative() == 1 || y.is_zero() == 1 {
        return None;
    }
    Some(Point {
        x,
        y,
        z: Fe::ONE,
        t,
    })
}

/// `a·b·2^−256 mod ℓ` for `a, b < ℓ` (CIOS Montgomery product), the
/// final subtraction under a mask.
fn mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut t = [0u64; 6];
    for &ai in a {
        let mut carry = 0u128;
        for j in 0..4 {
            let v = u128::from(t[j]) + u128::from(ai) * u128::from(b[j]) + carry;
            t[j] = v as u64;
            carry = v >> 64;
        }
        let v = u128::from(t[4]) + carry;
        t[4] = v as u64;
        t[5] = (v >> 64) as u64;
        let m = t[0].wrapping_mul(L_NPRIME);
        let mut carry = (u128::from(t[0]) + u128::from(m) * u128::from(L[0])) >> 64;
        for j in 1..4 {
            let v = u128::from(t[j]) + u128::from(m) * u128::from(L[j]) + carry;
            t[j - 1] = v as u64;
            carry = v >> 64;
        }
        let v = u128::from(t[4]) + carry;
        t[3] = v as u64;
        t[4] = t[5] + (v >> 64) as u64;
    }
    // t < 2ℓ < 2^254, so t[4] = 0 and one masked subtraction reduces it.
    let mut r = [0u64; 4];
    let mut borrow = 0u64;
    for j in 0..4 {
        let (d1, b1) = t[j].overflowing_sub(L[j]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        r[j] = d2;
        borrow = u64::from(b1 | b2);
    }
    let keep = mask(borrow);
    std::array::from_fn(|j| r[j] ^ (keep & (r[j] ^ t[j])))
}

/// `(−a²) mod ℓ` for a scalar `0 < a < ℓ`: two Montgomery products, then
/// `ℓ − a²`, which is in `(0, ℓ)` because `ℓ` is prime.
pub(crate) fn neg_square(a: &[u64; 4]) -> [u64; 4] {
    let sq = mont_mul(&mont_mul(a, a), &R2);
    let mut out = [0u64; 4];
    let mut borrow = false;
    for j in 0..4 {
        let (d1, b1) = L[j].overflowing_sub(sq[j]);
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        out[j] = d2;
        borrow = b1 | b2;
    }
    out
}

/// `x/2 mod ℓ` for a scalar `x < ℓ`: `x`, plus `ℓ` when odd (under a
/// mask), shifted right by one.
pub(crate) fn half(x: &[u64; 4]) -> [u64; 4] {
    let odd = mask(x[0] & 1);
    let mut sum = [0u64; 4];
    let mut carry = false;
    for j in 0..4 {
        let (s1, c1) = x[j].overflowing_add(L[j] & odd);
        let (s2, c2) = s1.overflowing_add(u64::from(carry));
        sum[j] = s2;
        carry = c1 | c2;
    }
    // x + ℓ < 2ℓ < 2^254: nothing carries out.
    std::array::from_fn(|j| sum[j] >> 1 | sum.get(j + 1).map_or(0, |&next| next << 63))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::{is_probable_prime, Ubig};
    use crate::field::tests::{fe, p, value};
    use rand::rngs::StdRng;
    use rand::Rng;

    fn ubig(limbs: &[u64]) -> Ubig {
        Ubig::from_limbs(limbs)
    }

    fn l() -> Ubig {
        ubig(&L)
    }

    /// A uniform scalar below `ℓ`.
    fn scalar(rng: &mut StdRng) -> [u64; 4] {
        let mut out = [0u64; 4];
        Ubig::random_below(&l(), rng).write_limbs(&mut out);
        out
    }

    fn limbs4(v: &Ubig) -> [u64; 4] {
        let mut out = [0u64; 4];
        v.write_limbs(&mut out);
        out
    }

    /// `s·p` by plain double-and-add from the top bit, sharing only the
    /// point addition and doubling with the windowed routines.
    fn reference_mul(p: &Point, s: &Ubig) -> Point {
        let mut acc = Point::IDENTITY;
        for i in (0..s.bit_len()).rev() {
            acc = acc.double();
            if s.bit(i) {
                acc = acc.add(p);
            }
        }
        acc
    }

    /// Equality in the group: the encodings agree.
    fn same(a: &Point, b: &Point) -> bool {
        encode(a) == encode(b)
    }

    /// The same point of edwards25519, not only of the quotient.
    fn same_on_curve(a: &Point, b: &Point) -> bool {
        (a.x * b.z).ct_eq(b.x * a.z) == 1 && (a.y * b.z).ct_eq(b.y * a.z) == 1
    }

    fn on_curve(q: &Point) -> bool {
        let (x, y) = (q.x * q.z.invert(), q.y * q.z.invert());
        let (xx, yy) = (x.square(), y.square());
        (yy - xx).ct_eq(Fe::ONE + D * xx * yy) == 1 && (q.x * q.y).ct_eq(q.t * q.z) == 1
    }

    #[test]
    fn constants_match_their_definitions() {
        let p = p();
        let inv = |v: u64| Ubig::from_u64(v).mod_inv_prime(&p);
        // d = −121665/121666.
        let d = p.sub(&Ubig::from_u64(121665)).mul(&inv(121666)).rem(&p);
        assert_eq!(value(D), d);
        assert_eq!(value(D2), d.add(&d).rem(&p));
        // 1/√(a − d) for a = −1: its square times (a − d) is 1, and it is
        // the non-negative root.
        let a_minus_d = p.sub(&Ubig::one()).add(&p).sub(&d).rem(&p);
        assert_eq!(
            value(INVSQRT_A_MINUS_D)
                .mul(&value(INVSQRT_A_MINUS_D))
                .mul(&a_minus_d)
                .rem(&p),
            Ubig::one()
        );
        assert_eq!(INVSQRT_A_MINUS_D.is_negative(), 0);
        // B: y = 4/5, x the non-negative root of x² = (y² − 1)/(d·y² + 1),
        // T = xy.
        let y = Ubig::from_u64(4).mul(&inv(5)).rem(&p);
        assert_eq!(value(BASEPOINT.y), y);
        let x = value(BASEPOINT.x);
        let (yy, xx) = (y.mul(&y).rem(&p), x.mul(&x).rem(&p));
        let den = d.mul(&yy).add(&Ubig::one()).rem(&p);
        assert_eq!(xx.mul(&den).rem(&p), yy.add(&p).sub(&Ubig::one()).rem(&p));
        assert!(!x.is_odd());
        assert_eq!(value(BASEPOINT.t), x.mul(&y).rem(&p));
        // ℓ and p are prime, and the Montgomery constants belong to ℓ.
        let l = l();
        assert_eq!(
            l,
            Ubig::one()
                .shl(252)
                .add(&Ubig::from_hex("14def9dea2f79cd65812631a5cf5d3ed"))
        );
        assert!(is_probable_prime(&l) && is_probable_prime(&p));
        assert_eq!(L[0].wrapping_mul(L_NPRIME), u64::MAX);
        assert_eq!(ubig(&R2), Ubig::one().shl(512).rem(&l));
    }

    #[test]
    fn basepoint_has_its_rfc_encoding() {
        // RFC 9496 Appendix A.1: the encodings of 0·B and 1·B.
        let want = "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76";
        let hex: String = encode(&BASEPOINT)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, want);
        assert_eq!(encode(&Point::IDENTITY), [0u8; 32]);
    }

    #[test]
    fn group_order_annihilates_the_generator() {
        let l = limbs4(&l());
        assert!(same(&mul(&BASEPOINT, &l), &Point::IDENTITY));
        assert!(same(&mul_base(&l), &Point::IDENTITY));
        assert!(same(
            &reference_mul(&BASEPOINT, &ubig(&l)),
            &Point::IDENTITY
        ));
        // ℓ·B is the identity on the curve too: B has order ℓ exactly.
        assert!(same_on_curve(&mul(&BASEPOINT, &l), &Point::IDENTITY));
    }

    #[test]
    fn scalar_multiplication_matches_double_and_add() {
        rand::check::cases("scalar_multiplication_matches_double_and_add", 24, |rng| {
            let (s, t) = (scalar(rng), scalar(rng));
            let p = mul_base(&t);
            assert!(on_curve(&p));
            let want = reference_mul(&p, &ubig(&s));
            assert!(same_on_curve(&mul(&p, &s), &want), "s {}", ubig(&s));
            let want = reference_mul(&BASEPOINT, &ubig(&s));
            assert!(same_on_curve(&mul_base(&s), &want), "s {}", ubig(&s));
        });
        // Edge scalars: 0, 1, every digit −8 or 8, ℓ − 1, 2^253 − 1.
        let l = l();
        let edges = [
            Ubig::zero(),
            Ubig::one(),
            Ubig::from_u64(8),
            Ubig::from_hex("8888888888888888888888888888888888888888888888888888888888888888")
                .rem(&l),
            l.sub(&Ubig::one()),
            Ubig::one().shl(253).sub(&Ubig::one()),
        ];
        for s in &edges {
            let want = reference_mul(&BASEPOINT, s);
            assert!(same_on_curve(&mul(&BASEPOINT, &limbs4(s)), &want), "s {s}");
            assert!(same_on_curve(&mul_base(&limbs4(s)), &want), "s {s}");
        }
    }

    #[test]
    fn comb_of_any_point_matches_variable_base_multiplication() {
        // A comb built for a point other than B, fresh from a
        // multiplication or decoded off the wire (Z = 1), walks to the
        // variable-base product at 1, 2, ℓ − 1 and random scalars.
        let l = l();
        let edges = [Ubig::one(), Ubig::from_u64(2), l.sub(&Ubig::one())].map(|s| limbs4(&s));
        rand::check::cases(
            "comb_of_any_point_matches_variable_base_multiplication",
            6,
            |rng| {
                let fresh = mul_base(&scalar(rng));
                let decoded = decode(&encode(&fresh)).expect("an honest encoding decodes");
                for p in [fresh, decoded] {
                    let comb = Comb::new(&p);
                    for s in edges.iter().copied().chain((0..4).map(|_| scalar(rng))) {
                        assert!(same_on_curve(&comb.mul(&s), &mul(&p, &s)), "s {}", ubig(&s));
                    }
                }
            },
        );
    }

    #[test]
    fn multiplication_distributes_and_negation_cancels() {
        let l = l();
        rand::check::cases(
            "multiplication_distributes_and_negation_cancels",
            16,
            |rng| {
                let (x, y) = (scalar(rng), scalar(rng));
                let sum = limbs4(&ubig(&x).add(&ubig(&y)).rem(&l));
                assert!(same(&mul_base(&sum), &mul_base(&x).add(&mul_base(&y))));
                let p = mul_base(&x);
                assert!(same(&p.add(&p.neg()), &Point::IDENTITY));
                assert!(same(&p.double(), &p.add(&p)));
            },
        );
    }

    #[test]
    fn batched_doubled_encoding_matches_encode() {
        let mut points = vec![
            Point::IDENTITY,
            BASEPOINT,
            Point {
                x: SQRT_M1,
                y: Fe::ZERO,
                z: Fe::ONE,
                t: Fe::ZERO,
            },
        ];
        rand::check::cases("batched_doubled_encoding_matches_encode", 8, |rng| {
            points.push(mul_base(&scalar(rng)));
        });
        let mut out = vec![[0u8; 32]; points.len()];
        encode_doubled(&points, &mut out);
        for (p, o) in points.iter().zip(&out) {
            assert_eq!(*o, encode(&p.double()));
        }
        encode_doubled(&[], &mut []);
    }

    #[test]
    fn decode_inverts_encode() {
        rand::check::cases("decode_inverts_encode", 64, |rng| {
            let p = mul_base(&scalar(rng));
            let bytes = encode(&p);
            let back = decode(&bytes).expect("an honest encoding decodes");
            assert!(on_curve(&back));
            assert_eq!(encode(&back), bytes);
        });
    }

    #[test]
    fn encoding_ignores_the_four_torsion() {
        // E[4] = {(0, 1), (0, −1), (±√−1, 0)}: adding any of them leaves
        // the ristretto255 element, and so its encoding, unchanged.
        let torsion = [
            Point::IDENTITY,
            Point {
                x: Fe::ZERO,
                y: -Fe::ONE,
                z: Fe::ONE,
                t: Fe::ZERO,
            },
            Point {
                x: SQRT_M1,
                y: Fe::ZERO,
                z: Fe::ONE,
                t: Fe::ZERO,
            },
            Point {
                x: -SQRT_M1,
                y: Fe::ZERO,
                z: Fe::ONE,
                t: Fe::ZERO,
            },
        ];
        rand::check::cases("encoding_ignores_the_four_torsion", 16, |rng| {
            let p = mul_base(&scalar(rng));
            for t in &torsion {
                assert!(on_curve(t));
                assert_eq!(encode(&p.add(t)), encode(&p));
            }
        });
    }

    #[test]
    fn every_accepted_string_decodes_into_the_prime_order_group() {
        let l = limbs4(&l());
        let mut accepted = 0;
        rand::check::cases(
            "every_accepted_string_decodes_into_the_prime_order_group",
            256,
            |rng| {
                let bytes: [u8; 32] = std::array::from_fn(|_| rng.gen());
                if let Some(p) = decode(&bytes) {
                    accepted += 1;
                    assert!(on_curve(&p));
                    // The decoded representative lies in 2E, of order 4ℓ, so
                    // ℓ·P is 4-torsion: the identity of ristretto255.
                    assert!(same(&mul(&p, &l), &Point::IDENTITY), "{bytes:?}");
                    assert_eq!(encode(&p), bytes);
                }
            },
        );
        // About one string in 16 is canonical, non-negative and square.
        assert!(accepted > 0, "no random string decoded");
    }

    #[test]
    fn decode_rejects_non_canonical_negative_non_square_and_identity() {
        let p = p();
        let le = |v: &Ubig| -> [u8; 32] {
            let mut b = v.to_be_bytes_padded(32);
            b.reverse();
            b.try_into().expect("32 bytes")
        };
        // The identity, p and p + 2 (≥ p), 2^255 − 1, an odd s, and a
        // non-negative s whose ratio is not a square.
        let honest = encode(&BASEPOINT);
        let odd = fe(&value(Fe::from_bytes(&honest)).add(&Ubig::one()));
        // The smallest even s whose decoding ratio is not a square.
        let non_square = (2..200u64)
            .step_by(2)
            .map(Ubig::from_u64)
            .find(|v| {
                let ss = fe(v).square();
                let (u1, u2) = (Fe::ONE - ss, Fe::ONE + ss);
                let v = -(D * u1.square()) - u2.square();
                Fe::sqrt_ratio_m1(Fe::ONE, v * u2.square()).0 == 0
            })
            .expect("a small even non-square s");
        assert_eq!(non_square, Ubig::from_u64(8));
        for bad in [
            [0u8; 32],
            le(&p),
            le(&p.add(&Ubig::from_u64(2))),
            [0xff; 32],
            odd.to_bytes(),
            le(&non_square),
        ] {
            assert!(decode(&bad).is_none(), "{bad:?}");
        }
        assert!(decode(&honest).is_some());
    }

    #[test]
    fn neg_square_matches_ubig() {
        let l = l();
        rand::check::cases("neg_square_matches_ubig", 64, |rng| {
            let a = scalar(rng);
            let a2 = ubig(&a).mul(&ubig(&a)).rem(&l);
            let want = if a2.is_zero() {
                Ubig::zero()
            } else {
                l.sub(&a2)
            };
            assert_eq!(ubig(&neg_square(&a)), want, "a {}", ubig(&a));
        });
        for a in [Ubig::one(), Ubig::from_u64(2), l.sub(&Ubig::one())] {
            let want = l.sub(&a.mul(&a).rem(&l));
            assert_eq!(ubig(&neg_square(&limbs4(&a))), want, "a {a}");
        }
    }

    #[test]
    fn half_doubles_back() {
        let l = l();
        rand::check::cases("half_doubles_back", 64, |rng| {
            let x = scalar(rng);
            let h = ubig(&half(&x));
            assert!(h.cmp_abs(&l).is_lt());
            assert_eq!(h.add(&h).rem(&l), ubig(&x));
        });
        assert_eq!(half(&[1, 0, 0, 0]), limbs4(&l.add(&Ubig::one()).shr(1)));
        assert_eq!(
            half(&limbs4(&l.sub(&Ubig::one()))),
            limbs4(&l.sub(&Ubig::one()).shr(1))
        );
    }

    #[test]
    fn radix16_digits_recompose_the_scalar() {
        rand::check::cases("radix16_digits_recompose_the_scalar", 64, |rng| {
            let s = scalar(rng);
            let digits = radix16(&s);
            assert!(digits.iter().all(|d| (-8..=8).contains(d)));
            let (mut pos, mut neg) = (Ubig::zero(), Ubig::zero());
            for (i, &d) in digits.iter().enumerate() {
                let term = Ubig::from_u64(u64::from(d.unsigned_abs())).shl(4 * i);
                if d < 0 {
                    neg = neg.add(&term);
                } else {
                    pos = pos.add(&term);
                }
            }
            assert_eq!(pos.sub(&neg), ubig(&s));
        });
    }
}
