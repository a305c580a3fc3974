//! The Diffie-Hellman group for the OT protocol.
//!
//! The paper has sender and receiver "agree on two large prime numbers g
//! and u, which are not necessarily hidden from a third party". We fix the
//! well-known 1024-bit MODP group of RFC 2409 (Oakley Group 2) — a safe
//! prime with generator 2 — so both sides (and the adversary) know the
//! parameters, exactly as in the paper's model.

use crate::bigint::{
    is_probable_prime, limbs_cmp, limbs_ge, limbs_mul_into, limbs_rem_into, with_scratch,
    FixedBaseTable, MontgomeryCtx, Ubig,
};
#[cfg(target_arch = "x86_64")]
use crate::ifma;
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;
use std::sync::OnceLock;

/// The RFC 2409 Oakley Group 2 prime (1024-bit), hexadecimal.
pub const MODP_1024_HEX: &str = concat!(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74",
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437",
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
);

/// Window width of the scalar fixed-base comb. 6 bits puts the MODP-1024
/// table at ⌈1024/6⌉ · 63 = 10,773 entries (1.32 MiB) and the
/// per-exponentiation cost at ≤ 171 Montgomery multiplications (versus
/// ~1024 squarings for square-and-multiply) — see DESIGN.md §7.
const FIXED_BASE_WINDOW: usize = 6;

/// The generator's comb table, in exactly one of two forms.
#[derive(Debug, Clone)]
enum Comb {
    /// 5-bit windows in radix 2^52, walked eight exponents at a time on
    /// the `ifma` lanes (1.00 MiB for MODP-1024): 16-limb groups on CPUs
    /// with AVX512-IFMA.
    #[cfg(target_arch = "x86_64")]
    Lanes(ifma::CombTable),
    /// The scalar w = 6 comb everywhere else, and the lane walk's
    /// differential oracle.
    Scalar(FixedBaseTable),
}

/// A fixed prime-modulus DH group with precomputed Montgomery context and
/// one comb table of generator powers (built once per group, reused by
/// every `pow_g_many` across all OT instances and sessions).
#[derive(Debug, Clone)]
pub struct DhGroup {
    ctx: MontgomeryCtx,
    generator: Ubig,
    /// `u − 1`: the order of the multiplicative group mod the prime `u`
    /// (the generator's order divides it), used to invert generator
    /// powers without a Fermat inversion.
    order: Ubig,
    comb: Comb,
}

impl DhGroup {
    /// The group of prime modulus `p` and generator `generator`, with its
    /// comb table built: 1.00 MiB and ~1–2 ms for a 1024-bit lane table on
    /// CPUs with AVX512-IFMA, 1.32 MiB and ~3–8 ms for the scalar one
    /// elsewhere. Protocol code borrows one of the shared groups instead.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even or zero (invalid Montgomery modulus).
    pub fn with_params(p: Ubig, generator: Ubig) -> DhGroup {
        let ctx = MontgomeryCtx::new(p);
        let order = ctx.modulus().sub(&Ubig::one());
        let comb = Self::comb_for(&ctx, &generator);
        DhGroup { ctx, generator, order, comb }
    }

    /// The lane comb table where the context and CPU allow it, else the
    /// scalar one; never both.
    fn comb_for(ctx: &MontgomeryCtx, generator: &Ubig) -> Comb {
        #[cfg(target_arch = "x86_64")]
        if let Some(table) = ctx.lane_comb_table(generator) {
            return Comb::Lanes(table);
        }
        let max_exp_bits = ctx.modulus().bit_len();
        Comb::Scalar(ctx.fixed_base_table(generator, max_exp_bits, FIXED_BASE_WINDOW))
    }

    /// The standard WaveKey group: 1024-bit MODP, generator 2.
    pub fn modp_1024() -> DhGroup {
        DhGroup::with_params(Ubig::from_hex(MODP_1024_HEX), Ubig::from_u64(2))
    }

    /// The process-wide shared MODP-1024 group. Building a [`DhGroup`]
    /// precomputes the comb table, so protocol code should use this
    /// shared instance, built once per process, to amortize that cost
    /// across sessions.
    pub fn modp_1024_shared() -> &'static DhGroup {
        static SHARED: OnceLock<DhGroup> = OnceLock::new();
        SHARED.get_or_init(DhGroup::modp_1024)
    }

    /// A deliberately tiny test group (61-bit prime) for fast unit tests.
    /// Never use outside tests/benches.
    pub fn tiny_test_group() -> DhGroup {
        // 2^61 − 1 is a Mersenne prime; generator 37 works for testing.
        DhGroup::with_params(Ubig::from_u64((1u64 << 61) - 1), Ubig::from_u64(37))
    }

    /// The process-wide shared tiny test group: same parameters as
    /// [`DhGroup::tiny_test_group`], built once per process, so every
    /// tiny-group session borrows one group instead of owning a copy of
    /// its comb table.
    pub fn tiny_test_group_shared() -> &'static DhGroup {
        static SHARED: OnceLock<DhGroup> = OnceLock::new();
        SHARED.get_or_init(DhGroup::tiny_test_group)
    }

    /// The group modulus `u` (paper notation).
    pub fn modulus(&self) -> &Ubig {
        self.ctx.modulus()
    }

    /// The generator `g`.
    pub fn generator(&self) -> &Ubig {
        &self.generator
    }

    /// `u − 1`, the order of the full multiplicative group mod `u`. The
    /// OT sender folds exponent algebra (`−a² mod (u−1)`) through this
    /// ([`DhGroup::neg_exponent`]) before hitting the comb table.
    pub fn order(&self) -> &Ubig {
        &self.order
    }

    /// Byte width of a serialized group element.
    pub fn element_len(&self) -> usize {
        self.modulus().bit_len().div_ceil(8)
    }

    /// Limbs per group element, `k` (1 on the tiny group, 16 on
    /// MODP-1024): a flat batch of `n` elements or exponents is one
    /// `Vec<u64>` of `n·k` little-endian limbs.
    pub fn limbs(&self) -> usize {
        self.ctx.limbs()
    }

    /// `g^x mod u` for every exponent `x` of the flat batch `exps`, into
    /// the matching `k`-limb run of `out`, each equal to [`DhGroup::pow`]
    /// of the generator, through the group's comb table: one Montgomery
    /// multiplication per exponent window, no squarings. This is the
    /// kernel under the OT's `M_A` and `M_B` and the `k¹` fold.
    ///
    /// `out` holds `count = out.len() / k` results, and `exps` holds
    /// `count` exponents of `exps.len() / count` limbs each.
    ///
    /// With the lane table (1024-bit groups on CPUs with AVX512-IFMA) the
    /// exponents go eight at a time through an always-multiply walk with
    /// masked table reads, and a trailing group of fewer than eight is
    /// padded. The scalar table walks one exponent at a time and skips
    /// zero digits. Either way the calls fan out through
    /// [`wavekey_par::for_each_chunk_mut`], and an exponent wider than
    /// the table runs a general exponentiation.
    ///
    /// # Panics
    ///
    /// Panics unless `out` is a whole number of elements and `exps`
    /// splits evenly into one exponent per result.
    pub fn pow_g_many(&self, exps: &[u64], out: &mut [u64]) {
        match &self.comb {
            #[cfg(target_arch = "x86_64")]
            Comb::Lanes(t) => self.ctx.pow_comb_many(t, &self.generator, exps, out),
            Comb::Scalar(t) => self.ctx.pow_fixed_base_many(t, exps, out),
        }
    }

    /// `g^x mod u`: a one-element [`DhGroup::pow_g_many`]. With the lane
    /// table that is a padded group of eight, so batch callers should use
    /// `pow_g_many` directly.
    pub fn pow_g(&self, x: &Ubig) -> Ubig {
        let mut out = vec![0u64; self.limbs()];
        self.pow_g_many(x.as_limbs(), &mut out);
        Ubig::from_limbs(&out)
    }

    /// `g^(−x) mod u`, computed as `g^(u−1−x)` through the same comb
    /// table — far cheaper than a Fermat inversion of `g^x`.
    pub fn inv_pow_g(&self, x: &Ubig) -> Ubig {
        self.pow_g(&self.neg_exponent(x))
    }

    /// The exponent `(u−1) − (x mod (u−1))`, so that `g^e = g^(−x)`.
    /// `x` is reduced only when it exceeds `u−1`.
    pub fn neg_exponent(&self, x: &Ubig) -> Ubig {
        let mut out = vec![0u64; self.order.as_limbs().len()];
        self.neg_exponent_into(x.as_limbs(), &mut out);
        Ubig::from_limbs(&out)
    }

    /// [`DhGroup::neg_exponent`] of `a²` into the `k` limbs of `out`, for
    /// an exponent `a` of `k` limbs, with the square and the reduction on
    /// stack scratch. The OT sender writes each instance's `k¹` fold
    /// exponent `−a² mod (u−1)` straight into its flat batch this way.
    pub(crate) fn neg_square_exponent_into(&self, a: &[u64], out: &mut [u64]) {
        with_scratch(2 * a.len(), |square| {
            limbs_mul_into(a, a, square);
            self.neg_exponent_into(square, out);
        });
    }

    /// The negation fold on limbs, the one place it is written: `x` of
    /// any width, `out` of at least the order's limbs, zero-padded.
    fn neg_exponent_into(&self, x: &[u64], out: &mut [u64]) {
        let order = self.order.as_limbs();
        let (r, pad) = out.split_at_mut(order.len());
        pad.fill(0);
        if limbs_cmp(x, order) == Ordering::Greater {
            limbs_rem_into(x, order, r);
        } else {
            for (i, o) in r.iter_mut().enumerate() {
                *o = x.get(i).copied().unwrap_or(0);
            }
        }
        // r ← (u−1) − r, which cannot borrow: r ≤ u−1.
        let mut borrow = false;
        for (o, &m) in r.iter_mut().zip(order) {
            let (d, b1) = m.overflowing_sub(*o);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *o = d;
            borrow = b1 | b2;
        }
        debug_assert!(!borrow);
    }

    /// `base^x mod u`.
    pub fn pow(&self, base: &Ubig, x: &Ubig) -> Ubig {
        self.ctx.mod_pow(base, x)
    }

    /// `bases[i]^exps[i] mod u` for every pair `i` of the flat batches,
    /// into the `i`-th `k`-limb run of `out`, equal to [`DhGroup::pow`]
    /// pair by pair. On 1024-bit groups and CPUs with AVX512-IFMA the
    /// pairs run eight at a time ([`MontgomeryCtx::mod_pow_many`], which
    /// also gives the batch layout).
    ///
    /// # Panics
    ///
    /// Panics unless `out` is a whole number of elements and `bases` and
    /// `exps` split evenly into one value per result.
    pub fn pow_many(&self, bases: &[u64], exps: &[u64], out: &mut [u64]) {
        self.ctx.mod_pow_many(bases, exps, out);
    }

    /// `a·b mod u`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        self.ctx.mod_mul(a, b)
    }

    /// `a·b mod u` into `out`, for elements `a` and `b` of `k` limbs
    /// below `u` ([`MontgomeryCtx::mod_mul_limbs`]).
    pub fn mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        self.ctx.mod_mul_limbs(a, b, out);
    }

    /// `a / b mod u` (prime modulus inverse via Fermat).
    ///
    /// # Panics
    ///
    /// Panics if `b ≡ 0`.
    pub fn div(&self, a: &Ubig, b: &Ubig) -> Ubig {
        self.ctx.mod_mul(a, &self.ctx.mod_inv_prime(b))
    }

    /// Samples a random exponent in `[1, u)`.
    pub fn random_exponent(&self, rng: &mut StdRng) -> Ubig {
        let mut x = vec![0u64; self.limbs()];
        self.random_exponent_into(rng, &mut x);
        Ubig::from_limbs(&x)
    }

    /// [`DhGroup::random_exponent`] into the `k` limbs of `out`, drawing
    /// the same RNG words: per attempt one `u64` per limb, the top limb
    /// masked to the modulus width, rejected when not below `u` or zero.
    pub fn random_exponent_into(&self, rng: &mut StdRng, out: &mut [u64]) {
        let u = self.modulus().as_limbs();
        let bits = self.modulus().bit_len();
        let top_mask = if bits.is_multiple_of(64) { u64::MAX } else { (1u64 << (bits % 64)) - 1 };
        loop {
            for limb in out.iter_mut() {
                *limb = rng.gen();
            }
            out[u.len() - 1] &= top_mask;
            if !limbs_ge(out, u) && out.iter().any(|&l| l != 0) {
                return;
            }
        }
    }

    /// Serializes a group element to fixed-width big-endian bytes.
    pub fn encode_element(&self, e: &Ubig) -> Vec<u8> {
        e.to_be_bytes_padded(self.element_len())
    }

    /// Writes the element `x` (`k` limbs) as [`DhGroup::element_len`]
    /// big-endian bytes into `out`, the wire form of
    /// [`DhGroup::encode_element`].
    pub fn encode_into(&self, x: &[u64], out: &mut [u8]) {
        let w = out.len();
        for (j, byte) in out.iter_mut().enumerate() {
            let b = w - 1 - j;
            *byte = (x[b / 8] >> (8 * (b % 8))) as u8;
        }
    }

    /// Parses one [`DhGroup::element_len`]-byte element straight into the
    /// `k` limbs of `out`: `false` for 0 and for any encoding of `u` or
    /// above, which no honest party sends. A peer that could send 0 would
    /// zero the OT keys derived from it.
    pub fn decode_into(&self, bytes: &[u8], out: &mut [u64]) -> bool {
        debug_assert_eq!(bytes.len(), self.element_len());
        out.fill(0);
        let w = bytes.len();
        for (j, &byte) in bytes.iter().enumerate() {
            let b = w - 1 - j;
            out[b / 8] |= u64::from(byte) << (8 * (b % 8));
        }
        out.iter().any(|&l| l != 0) && !limbs_ge(out, self.modulus().as_limbs())
    }

    /// Verifies that the group modulus is prime (sanity check; expensive
    /// for the 1024-bit group, used in tests).
    pub fn check_prime(&self) -> bool {
        is_probable_prime(self.modulus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn tiny_group_dh_agreement() {
        let g = DhGroup::tiny_test_group();
        let mut rng = StdRng::seed_from_u64(1);
        let a = g.random_exponent(&mut rng);
        let b = g.random_exponent(&mut rng);
        let ga = g.pow_g(&a);
        let gb = g.pow_g(&b);
        assert_eq!(g.pow(&gb, &a), g.pow(&ga, &b));
    }

    #[test]
    fn modp_1024_dh_agreement() {
        let g = DhGroup::modp_1024();
        let mut rng = StdRng::seed_from_u64(2);
        let a = g.random_exponent(&mut rng);
        let b = g.random_exponent(&mut rng);
        let ga = g.pow_g(&a);
        let gb = g.pow_g(&b);
        assert_eq!(g.pow(&gb, &a), g.pow(&ga, &b));
    }

    #[test]
    fn division_inverts_multiplication() {
        let g = DhGroup::modp_1024();
        let mut rng = StdRng::seed_from_u64(3);
        let a = Ubig::random_below(g.modulus(), &mut rng);
        let b = g.random_exponent(&mut rng);
        let prod = g.mul(&a, &b);
        assert_eq!(g.div(&prod, &b), a);
    }

    #[test]
    fn element_codec_roundtrip() {
        let g = DhGroup::modp_1024();
        assert_eq!(g.element_len(), 128);
        let mut rng = StdRng::seed_from_u64(4);
        let e = Ubig::random_below(g.modulus(), &mut rng);
        let bytes = g.encode_element(&e);
        assert_eq!(bytes.len(), 128);
        let mut limbs = vec![0u64; g.limbs()];
        assert!(g.decode_into(&bytes, &mut limbs));
        assert_eq!(Ubig::from_limbs(&limbs), e);
    }

    #[test]
    fn inv_pow_g_inverts_pow_g() {
        for g in [DhGroup::tiny_test_group(), DhGroup::modp_1024()] {
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..3 {
                let x = g.random_exponent(&mut rng);
                assert_eq!(g.mul(&g.pow_g(&x), &g.inv_pow_g(&x)), Ubig::one());
                // Same value as the Fermat-inversion route.
                assert_eq!(g.inv_pow_g(&x), g.div(&Ubig::one(), &g.pow_g(&x)));
            }
            assert_eq!(g.inv_pow_g(&Ubig::zero()), Ubig::one());
        }
    }

    #[test]
    fn neg_exponent_folds_around_the_order() {
        let g = DhGroup::tiny_test_group();
        let order = g.order().clone();
        let one = Ubig::one();
        // x ≤ u−1 is negated as is; wider x is reduced first.
        assert_eq!(g.neg_exponent(&Ubig::zero()), order);
        assert_eq!(g.neg_exponent(&one), order.sub(&one));
        assert_eq!(g.neg_exponent(&order), Ubig::zero());
        assert_eq!(g.neg_exponent(&order.add(&one)), order.sub(&one));
        assert_eq!(g.neg_exponent(&order.add(&order)), order);
        for x in [Ubig::from_u64(5), order.sub(&one), order.mul(&order).add(&Ubig::from_u64(7))] {
            assert_eq!(g.pow_g(&g.neg_exponent(&x)), g.div(&one, &g.pow_g(&x)), "x {x}");
        }
    }

    #[test]
    fn neg_square_exponent_matches_the_ubig_fold() {
        for g in [DhGroup::tiny_test_group(), DhGroup::modp_1024()] {
            let (k, u, order) = (g.limbs(), g.modulus(), g.order());
            let (one, two) = (Ubig::one(), Ubig::from_u64(2));
            let mut rng = StdRng::seed_from_u64(6);
            let edges = [one.clone(), two.clone(), u.sub(&two), u.sub(&one)];
            let randoms: Vec<Ubig> = (0..256).map(|_| g.random_exponent(&mut rng)).collect();
            for a in edges.iter().chain(&randoms) {
                let mut limbs = vec![0u64; k];
                a.write_limbs(&mut limbs);
                let mut got = vec![0u64; k];
                g.neg_square_exponent_into(&limbs, &mut got);
                let (got, square) = (Ubig::from_limbs(&got), a.mul(a));
                assert_eq!(got, g.neg_exponent(&square), "a {a}");
                // The shift-subtract remainder, which shares no code with
                // Algorithm D.
                assert_eq!(got, order.sub(&square.rem_reference(order)), "a {a}");
            }
        }
    }

    #[test]
    fn shared_group_matches_fresh_group() {
        for (shared, fresh) in [
            (DhGroup::modp_1024_shared(), DhGroup::modp_1024()),
            (DhGroup::tiny_test_group_shared(), DhGroup::tiny_test_group()),
        ] {
            assert_eq!(shared.modulus(), fresh.modulus());
            assert_eq!(shared.generator(), fresh.generator());
            let x = Ubig::from_u64(123456789);
            assert_eq!(shared.pow_g(&x), fresh.pow_g(&x));
        }
    }

    #[test]
    fn tiny_group_modulus_is_prime() {
        assert!(DhGroup::tiny_test_group().check_prime());
    }

    #[test]
    #[ignore = "1024-bit Miller-Rabin is slow in debug; run with --ignored"]
    fn modp_1024_modulus_is_prime() {
        assert!(DhGroup::modp_1024().check_prime());
    }
}
