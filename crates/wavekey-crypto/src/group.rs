//! The two groups the OT runs over.
//!
//! The paper has sender and receiver "agree on two large prime numbers g
//! and u, which are not necessarily hidden from a third party": a public
//! group and generator. WaveKey fixes ristretto255 (RFC 9496), a group of
//! prime order `ℓ ≈ 2^252` with 32-byte elements, written additively: the
//! paper's `g^a mod u` is `a·G`, and `M_A·g^b` is `M_A + b·G`
//! ([`crate::ristretto`]). A 61-bit multiplicative group mod the Mersenne
//! prime `2^61 − 1` serves fast tests and the gateway workload; it gives
//! no security.
//!
//! Batches are flat `u64` buffers, so an OT batch is a few vectors
//! whatever its size: scalars of [`Group::scalar_words`] words each and
//! elements of [`Group::point_words`] words each (an extended
//! edwards25519 point, or one residue). Every batch operation fans out
//! through [`wavekey_par::for_each_chunk_mut`].

use crate::ristretto::{self, Point};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::OnceLock;

/// The tiny group's modulus, the Mersenne prime `2^61 − 1`.
const TINY_P: u64 = (1 << 61) - 1;
/// The tiny group's generator.
const TINY_G: u64 = 37;
/// Window width of the tiny group's comb: 11 windows of 64 entries.
const TINY_W: usize = 6;

/// A group the OT can run over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// ristretto255: the production group.
    Ristretto255,
    /// The multiplicative group mod `2^61 − 1` with generator 37. Never
    /// use outside tests and benches.
    Tiny,
}

impl Group {
    /// Byte width of an encoded element: 32, or 8 on the tiny group.
    pub fn element_len(self) -> usize {
        match self {
            Group::Ristretto255 => 32,
            Group::Tiny => 8,
        }
    }

    /// Words per scalar in a flat batch: 4, or 1 on the tiny group.
    pub fn scalar_words(self) -> usize {
        match self {
            Group::Ristretto255 => 4,
            Group::Tiny => 1,
        }
    }

    /// Words per decoded element in a flat batch: 20 (four field elements
    /// of five limbs), or 1 on the tiny group.
    pub fn point_words(self) -> usize {
        match self {
            Group::Ristretto255 => 20,
            Group::Tiny => 1,
        }
    }

    /// Estimated multiply-adds per scalar multiplication, the work hint
    /// for [`wavekey_par`]: `(variable base, fixed base)`.
    fn work(self) -> (usize, usize) {
        match self {
            Group::Ristretto255 => (1 << 16, 1 << 14),
            Group::Tiny => (128, 16),
        }
    }

    /// Draws a uniform non-zero scalar into `out`: per attempt one `u64`
    /// per word, the top word masked to the bound's width, rejected when
    /// not below the bound (`ℓ`, or `2^61 − 1` on the tiny group) or zero.
    pub fn random_scalar_into(self, rng: &mut StdRng, out: &mut [u64]) {
        let bound: &[u64] = match self {
            Group::Ristretto255 => &ristretto::L,
            Group::Tiny => &[TINY_P],
        };
        let top = *bound.last().expect("a non-empty bound");
        let top_mask = u64::MAX >> top.leading_zeros();
        loop {
            for word in out.iter_mut() {
                *word = rng.gen();
            }
            *out.last_mut().expect("a non-empty scalar") &= top_mask;
            let below = out.iter().rev().cmp(bound.iter().rev()) == std::cmp::Ordering::Less;
            if below && out.iter().any(|&w| w != 0) {
                return;
            }
        }
    }

    /// `x·G` for every scalar `x` of the flat batch `scalars`, into the
    /// matching element of `out`, through the generator's comb.
    pub fn mul_base_many(self, scalars: &[u64], out: &mut [u64]) {
        match self {
            Group::Ristretto255 => {
                self.walk_many(scalars, out, |x, o| ristretto::mul_base(as4(x)).to_words(o));
            }
            Group::Tiny => self.walk_many(scalars, out, |x, o| o[0] = tiny_pow_g(x[0])),
        }
    }

    /// The comb of the element `p`, the table the generator's comb is
    /// built as: a product `x·p` through it ([`Comb::mul_many`]) is a
    /// comb walk instead of a variable-base multiplication. It pays off
    /// from a few products by one base on: on ristretto255 the build
    /// costs about ten walks and holds 30 KiB, on the tiny group about
    /// eight general powers and 5.5 KiB.
    pub fn comb(self, p: &[u64]) -> Comb {
        Comb(match self {
            Group::Ristretto255 => {
                Table::Ristretto255(Box::new(ristretto::Comb::new(&Point::from_words(p))))
            }
            Group::Tiny => Table::Tiny(Box::new(TinyComb::new(p[0]))),
        })
    }

    /// `walk(x, o)` for every scalar `x` of the flat batch `scalars` and
    /// the matching element `o` of `out`: the fan-out of the fixed-base
    /// products.
    fn walk_many(self, scalars: &[u64], out: &mut [u64], walk: impl Fn(&[u64], &mut [u64]) + Sync) {
        let (sw, pw) = (self.scalar_words(), self.point_words());
        let work = out.len() / pw * self.work().1;
        wavekey_par::for_each_chunk_mut(out, pw, work, |i, o| walk(&scalars[i * sw..][..sw], o));
    }

    /// `x·Pᵢ` for the one scalar `x` and every element `Pᵢ` of the flat
    /// batch `points`, into the matching element of `out`.
    pub fn mul_many(self, points: &[u64], x: &[u64], out: &mut [u64]) {
        let pw = self.point_words();
        let work = out.len() / pw * self.work().0;
        wavekey_par::for_each_chunk_mut(out, pw, work, |i, o| {
            let p = &points[i * pw..][..pw];
            match self {
                Group::Ristretto255 => ristretto::mul(&Point::from_words(p), as4(x)).to_words(o),
                Group::Tiny => o[0] = tiny_pow(p[0], x[0]),
            }
        });
    }

    /// `p + q` (the paper's product `p·q`) into `out`.
    pub fn add_into(self, p: &[u64], q: &[u64], out: &mut [u64]) {
        match self {
            Group::Ristretto255 => {
                Point::from_words(p)
                    .add(&Point::from_words(q))
                    .to_words(out);
            }
            Group::Tiny => out[0] = tiny_mul(p[0], q[0]),
        }
    }

    /// The scalar `−a²` of the OT's `k¹` fold into `out`, so that
    /// `(−a²)·G = −(a²·G)`: `ℓ − (a² mod ℓ)` by a fixed-width reduction,
    /// or `(u−1) − (a² mod (u−1))` on the tiny group, whose generator's
    /// order divides `u − 1`.
    pub fn neg_square_into(self, a: &[u64], out: &mut [u64]) {
        match self {
            Group::Ristretto255 => out.copy_from_slice(&ristretto::neg_square(as4(a))),
            Group::Tiny => {
                let order = TINY_P - 1;
                let square = (u128::from(a[0]) * u128::from(a[0]) % u128::from(order)) as u64;
                out[0] = order - square;
            }
        }
    }

    /// `x/2 mod ℓ` for every scalar of the flat batch `scalars`: the
    /// scalars whose products [`Group::encode_doubled_many`] encodes as
    /// the products by `x`. The tiny group, whose encodings cost nothing,
    /// neither halves nor doubles: it returns the scalars.
    pub fn halves(self, scalars: &[u64]) -> Vec<u64> {
        let mut out = scalars.to_vec();
        if self == Group::Ristretto255 {
            for x in out.chunks_exact_mut(4) {
                x.copy_from_slice(&ristretto::half(as4(x)));
            }
        }
        out
    }

    /// The encodings of `2·P` for every element `P` of the flat batch
    /// `points`, into `out` ([`Group::element_len`] bytes each), with one
    /// field inversion for the whole batch where [`Group::encode_into`]
    /// takes an inverse square root per element. The tiny group writes
    /// the elements themselves ([`Group::halves`]).
    pub fn encode_doubled_many(self, points: &[u64], out: &mut [u8]) {
        match self {
            Group::Ristretto255 => {
                let points: Vec<Point> = points.chunks_exact(20).map(Point::from_words).collect();
                let mut encoded = vec![[0u8; 32]; points.len()];
                ristretto::encode_doubled(&points, &mut encoded);
                for (o, e) in out.chunks_exact_mut(32).zip(&encoded) {
                    o.copy_from_slice(e);
                }
            }
            Group::Tiny => {
                for (o, p) in out.chunks_exact_mut(8).zip(points) {
                    o.copy_from_slice(&p.to_be_bytes());
                }
            }
        }
    }

    /// Writes the element `p` as its [`Group::element_len`]-byte wire
    /// form: the canonical ristretto255 encoding, computed without a
    /// branch on the point, or the residue's big-endian bytes.
    pub fn encode_into(self, p: &[u64], out: &mut [u8]) {
        match self {
            Group::Ristretto255 => out.copy_from_slice(&ristretto::encode(&Point::from_words(p))),
            Group::Tiny => out.copy_from_slice(&p[0].to_be_bytes()),
        }
    }

    /// Parses one [`Group::element_len`]-byte element into `out`: `false`
    /// for any encoding no honest party sends. On ristretto255 that is a
    /// non-canonical, negative or non-square `s`, and the identity; on
    /// the tiny group 0 and any value not below the modulus. A peer that
    /// could send the identity would fix the OT keys derived from it.
    pub fn decode_into(self, bytes: &[u8], out: &mut [u64]) -> bool {
        match self {
            Group::Ristretto255 => {
                let point = bytes.try_into().ok().and_then(ristretto::decode);
                point.map(|p| p.to_words(out)).is_some()
            }
            Group::Tiny => {
                let x = u64::from_be_bytes(bytes.try_into().expect("8 bytes"));
                out[0] = x;
                x != 0 && x < TINY_P
            }
        }
    }
}

/// The comb of one element `P` ([`Group::comb`]): `P`'s multiples by
/// every digit of every window of a scalar, so a product `x·P` is one
/// table read and one addition per window. Dropping it frees the table;
/// the generator's combs stay for the process.
pub struct Comb(Table);

enum Table {
    Ristretto255(Box<ristretto::Comb>),
    Tiny(Box<TinyComb>),
}

impl Comb {
    /// `x·P` for every scalar `x` of the flat batch `scalars`, into the
    /// matching element of `out`: one walk each, reading the table as
    /// the generator's comb is read.
    pub fn mul_many(&self, scalars: &[u64], out: &mut [u64]) {
        match &self.0 {
            Table::Ristretto255(comb) => {
                Group::Ristretto255.walk_many(scalars, out, |x, o| comb.mul(as4(x)).to_words(o))
            }
            Table::Tiny(comb) => Group::Tiny.walk_many(scalars, out, |x, o| o[0] = comb.pow(x[0])),
        }
    }
}

/// A four-word scalar of a flat batch.
fn as4(x: &[u64]) -> &[u64; 4] {
    x.try_into().expect("a four-word scalar")
}

/// `a·b mod 2^61 − 1`, folding the product's high bits onto its low
/// bits (`2^61 ≡ 1`).
fn tiny_mul(a: u64, b: u64) -> u64 {
    let t = u128::from(a) * u128::from(b);
    let r = (t as u64 & TINY_P) + (t >> 61) as u64;
    let r = (r & TINY_P) + (r >> 61);
    if r >= TINY_P {
        r - TINY_P
    } else {
        r
    }
}

/// `base^x mod 2^61 − 1` by left-to-right square-and-multiply.
fn tiny_pow(base: u64, x: u64) -> u64 {
    (0..64 - x.leading_zeros()).rev().fold(1, |acc, i| {
        let acc = tiny_mul(acc, acc);
        if (x >> i) & 1 == 1 {
            tiny_mul(acc, base)
        } else {
            acc
        }
    })
}

/// The tiny group's comb of a base `g`: row `i` holds `g^(d·2^(6i))` for
/// every 6-bit digit `d`, 11 rows of 64 entries.
struct TinyComb([[u64; 1 << TINY_W]; 64usize.div_ceil(TINY_W)]);

impl TinyComb {
    fn new(g: u64) -> TinyComb {
        let mut rows = [[1u64; 1 << TINY_W]; 64usize.div_ceil(TINY_W)];
        let mut base = g;
        for row in &mut rows {
            for d in 1..row.len() {
                row[d] = tiny_mul(row[d - 1], base);
            }
            base = tiny_mul(row[row.len() - 1], base);
        }
        TinyComb(rows)
    }

    /// `g^x`: window `i` of `x` picks `g^(digit·2^(6i))`, one product per
    /// window and no squaring.
    fn pow(&self, x: u64) -> u64 {
        self.0.iter().enumerate().fold(1, |acc, (i, row)| {
            let digit = (x >> (TINY_W * i)) as usize & ((1 << TINY_W) - 1);
            tiny_mul(acc, row[digit])
        })
    }
}

/// `37^x mod 2^61 − 1` through the generator's comb, built once per
/// process.
fn tiny_pow_g(x: u64) -> u64 {
    static COMB: OnceLock<TinyComb> = OnceLock::new();
    COMB.get_or_init(|| TinyComb::new(TINY_G)).pow(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::{is_probable_prime, Ubig};
    use rand::SeedableRng;

    /// `x` copies of a flat batch of one scalar drawn from `rng`.
    fn scalar(group: Group, rng: &mut StdRng) -> Vec<u64> {
        let mut x = vec![0u64; group.scalar_words()];
        group.random_scalar_into(rng, &mut x);
        x
    }

    fn mul_base(group: Group, x: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; group.point_words()];
        group.mul_base_many(x, &mut out);
        out
    }

    fn mul(group: Group, p: &[u64], x: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; group.point_words()];
        group.mul_many(p, x, &mut out);
        out
    }

    fn encode(group: Group, p: &[u64]) -> Vec<u8> {
        let mut out = vec![0u8; group.element_len()];
        group.encode_into(p, &mut out);
        out
    }

    #[test]
    fn tiny_group_dh_agreement() {
        let g = Group::Tiny;
        let mut rng = StdRng::seed_from_u64(1);
        let (a, b) = (scalar(g, &mut rng), scalar(g, &mut rng));
        let (ga, gb) = (mul_base(g, &a), mul_base(g, &b));
        assert_eq!(mul(g, &gb, &a), mul(g, &ga, &b));
    }

    #[test]
    fn ristretto255_dh_agreement() {
        let g = Group::Ristretto255;
        let mut rng = StdRng::seed_from_u64(2);
        let (a, b) = (scalar(g, &mut rng), scalar(g, &mut rng));
        let (ga, gb) = (mul_base(g, &a), mul_base(g, &b));
        assert_eq!(encode(g, &mul(g, &gb, &a)), encode(g, &mul(g, &ga, &b)));
    }

    #[test]
    fn tiny_group_matches_ubig() {
        let (p, g) = (Ubig::from_u64(TINY_P), Ubig::from_u64(TINY_G));
        rand::check::cases("tiny_group_matches_ubig", 64, |rng| {
            let (x, y) = (scalar(Group::Tiny, rng)[0], scalar(Group::Tiny, rng)[0]);
            let (xu, yu) = (Ubig::from_u64(x), Ubig::from_u64(y));
            assert_eq!(Ubig::from_u64(tiny_mul(x, y)), xu.mul(&yu).rem(&p));
            assert_eq!(Ubig::from_u64(tiny_pow(x, y)), xu.mod_pow(&yu, &p));
            assert_eq!(Ubig::from_u64(tiny_pow_g(y)), g.mod_pow(&yu, &p));
        });
        for x in [0, 1, TINY_P - 1, (1 << 61) | 5, u64::MAX] {
            let xu = Ubig::from_u64(x);
            assert_eq!(Ubig::from_u64(tiny_pow_g(x)), g.mod_pow(&xu, &p), "x {x}");
            assert_eq!(tiny_mul(TINY_P - 1, TINY_P - 1), 1);
        }
    }

    #[test]
    fn comb_of_any_element_matches_mul_many() {
        // A comb of a random element walks to that element's
        // variable-base products at 1, 2, the largest scalar (ℓ − 1, or
        // 2^61 − 2) and random scalars, on both groups.
        for g in [Group::Ristretto255, Group::Tiny] {
            let sw = g.scalar_words();
            let mut edges = vec![0u64; 3 * sw];
            edges[0] = 1;
            edges[sw] = 2;
            match g {
                Group::Ristretto255 => {
                    edges[8..].copy_from_slice(&ristretto::L);
                    edges[8] -= 1;
                }
                Group::Tiny => edges[2] = TINY_P - 1,
            }
            rand::check::cases("comb_of_any_element_matches_mul_many", 6, |rng| {
                let p = mul_base(g, &scalar(g, rng));
                let mut scalars = edges.clone();
                for _ in 0..4 {
                    scalars.extend(scalar(g, rng));
                }
                let pw = g.point_words();
                let mut walked = vec![0u64; scalars.len() / sw * pw];
                g.comb(&p).mul_many(&scalars, &mut walked);
                for (x, q) in scalars.chunks_exact(sw).zip(walked.chunks_exact(pw)) {
                    assert_eq!(encode(g, q), encode(g, &mul(g, &p, x)), "{g:?} x {x:?}");
                }
            });
        }
    }

    #[test]
    fn element_codec_roundtrip() {
        for g in [Group::Ristretto255, Group::Tiny] {
            rand::check::cases("element_codec_roundtrip", 32, |rng| {
                let e = mul_base(g, &scalar(g, rng));
                let bytes = encode(g, &e);
                assert_eq!(bytes.len(), g.element_len());
                let mut back = vec![0u64; g.point_words()];
                assert!(g.decode_into(&bytes, &mut back));
                assert_eq!(encode(g, &back), bytes);
            });
        }
    }

    #[test]
    fn neg_square_exponent_matches_the_ubig_fold() {
        // `(−a²)·G` is `−(a²·G)`: adding `a²·G` gives the identity (1 on
        // the tiny group), at edge and random `a`.
        for g in [Group::Ristretto255, Group::Tiny] {
            let order = match g {
                Group::Ristretto255 => Ubig::from_limbs(&ristretto::L),
                Group::Tiny => Ubig::from_u64(TINY_P - 1),
            };
            let mut rng = StdRng::seed_from_u64(6);
            let (one, two) = (Ubig::one(), Ubig::from_u64(2));
            let top = match g {
                Group::Ristretto255 => order.sub(&one),
                Group::Tiny => Ubig::from_u64(TINY_P - 1),
            };
            let edges = [one.clone(), two, top];
            let randoms: Vec<Ubig> = (0..64)
                .map(|_| Ubig::from_limbs(&scalar(g, &mut rng)))
                .collect();
            for a in edges.iter().chain(&randoms) {
                let mut limbs = vec![0u64; g.scalar_words()];
                a.write_limbs(&mut limbs);
                let mut got = vec![0u64; g.scalar_words()];
                g.neg_square_into(&limbs, &mut got);
                let square = a.mul(a).rem(&order);
                assert_eq!(Ubig::from_limbs(&got), order.sub(&square), "a {a}");
                let mut square_limbs = vec![0u64; g.scalar_words()];
                square.write_limbs(&mut square_limbs);
                let mut sum = vec![0u64; g.point_words()];
                g.add_into(&mul_base(g, &got), &mul_base(g, &square_limbs), &mut sum);
                let identity = match g {
                    Group::Ristretto255 => vec![0u8; 32],
                    Group::Tiny => 1u64.to_be_bytes().to_vec(),
                };
                assert_eq!(encode(g, &sum), identity, "a {a}");
            }
        }
    }

    #[test]
    fn random_scalars_stay_in_range_and_draw_as_before() {
        // The tiny group draws one masked `u64` per attempt, as it always
        // has, so seeded tiny-group sessions keep their keys.
        let mut rng = StdRng::seed_from_u64(3);
        let (mut twin, mut other) = (rng.clone(), StdRng::seed_from_u64(4));
        for _ in 0..256 {
            let x = scalar(Group::Tiny, &mut rng)[0];
            let want = loop {
                let v = twin.gen::<u64>() & TINY_P;
                if v != 0 && v < TINY_P {
                    break v;
                }
            };
            assert_eq!(x, want);
            let s = Ubig::from_limbs(&scalar(Group::Ristretto255, &mut other));
            assert!(!s.is_zero() && s.cmp_abs(&Ubig::from_limbs(&ristretto::L)).is_lt());
        }
    }

    #[test]
    fn tiny_group_modulus_is_prime() {
        assert!(is_probable_prime(&Ubig::from_u64(TINY_P)));
    }
}
