//! The Diffie-Hellman group for the OT protocol.
//!
//! The paper has sender and receiver "agree on two large prime numbers g
//! and u, which are not necessarily hidden from a third party". We fix the
//! well-known 1024-bit MODP group of RFC 2409 (Oakley Group 2) — a safe
//! prime with generator 2 — so both sides (and the adversary) know the
//! parameters, exactly as in the paper's model.

use crate::bigint::{is_probable_prime, FixedBaseTable, MontgomeryCtx, Ubig};
use rand::rngs::StdRng;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The RFC 2409 Oakley Group 2 prime (1024-bit), hexadecimal.
pub const MODP_1024_HEX: &str = concat!(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74",
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437",
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED",
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
);

/// Fixed-base comb window width for generator powers. 6 bits puts the
/// MODP-1024 table at ⌈1024/6⌉ · 63 ≈ 10.8k entries ≈ 1.4 MB and the
/// per-exponentiation cost at ≤ 171 Montgomery multiplications (versus
/// ~1024 squarings for square-and-multiply) — see DESIGN.md §7.
const FIXED_BASE_WINDOW: usize = 6;

/// A fixed prime-modulus DH group with precomputed Montgomery context and
/// a fixed-base comb table of generator powers (built once per group,
/// reused by every `pow_g` across all OT instances and sessions).
#[derive(Debug, Clone)]
pub struct DhGroup {
    ctx: MontgomeryCtx,
    generator: Ubig,
    /// `u − 1`: the order of the multiplicative group mod the prime `u`
    /// (the generator's order divides it), used to invert generator
    /// powers without a Fermat inversion.
    order: Ubig,
    fixed_base: FixedBaseTable,
}

impl DhGroup {
    fn with_params(p: Ubig, generator: Ubig) -> DhGroup {
        let ctx = MontgomeryCtx::new(p);
        let order = ctx.modulus().sub(&Ubig::one());
        let max_exp_bits = ctx.modulus().bit_len();
        let fixed_base = ctx.fixed_base_table(&generator, max_exp_bits, FIXED_BASE_WINDOW);
        DhGroup { ctx, generator, order, fixed_base }
    }

    /// The standard WaveKey group: 1024-bit MODP, generator 2.
    pub fn modp_1024() -> DhGroup {
        DhGroup::with_params(Ubig::from_hex(MODP_1024_HEX), Ubig::from_u64(2))
    }

    /// The process-wide shared MODP-1024 group. Building a [`DhGroup`]
    /// precomputes the fixed-base table, so protocol code should use this
    /// shared instance to amortize that cost across sessions. Backed by
    /// the keyed [`PrecompCache`]; the `&'static` shape is kept for the
    /// hot paths that want a borrow with no refcount traffic.
    pub fn modp_1024_shared() -> &'static DhGroup {
        static SHARED: OnceLock<Arc<DhGroup>> = OnceLock::new();
        SHARED
            .get_or_init(|| {
                PrecompCache::global()
                    .get(&Ubig::from_hex(MODP_1024_HEX), &Ubig::from_u64(2))
            })
            .as_ref()
    }

    /// A deliberately tiny test group (61-bit prime) for fast unit tests.
    /// Never use outside tests/benches.
    pub fn tiny_test_group() -> DhGroup {
        // 2^61 − 1 is a Mersenne prime; generator 37 works for testing.
        DhGroup::with_params(Ubig::from_u64((1u64 << 61) - 1), Ubig::from_u64(37))
    }

    /// The cache-backed shared tiny test group: same parameters as
    /// [`DhGroup::tiny_test_group`], but the comb table is built once per
    /// process instead of once per session.
    pub fn tiny_test_group_shared() -> Arc<DhGroup> {
        PrecompCache::global().get(&Ubig::from_u64((1u64 << 61) - 1), &Ubig::from_u64(37))
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
    /// ([`DhGroup::neg_exponent`]) before hitting the fixed-base table.
    pub fn order(&self) -> &Ubig {
        &self.order
    }

    /// Byte width of a serialized group element.
    pub fn element_len(&self) -> usize {
        self.modulus().bit_len().div_ceil(8)
    }

    /// Rough cost of one exponentiation in 64-bit limb multiply-adds
    /// (exponent bits × limbs²): the `work` estimate for
    /// [`wavekey_par`] loops over exponentiations, so MODP-1024 batches
    /// split across threads and tiny-group batches stay inline.
    pub fn modexp_work(&self) -> usize {
        self.ctx.modexp_work()
    }

    /// `g^x mod u` via the precomputed fixed-base comb table: at most one
    /// Montgomery multiplication per exponent digit, no squarings. This
    /// is the kernel under the deadline-bound `M_A`/`M_B` preparation.
    pub fn pow_g(&self, x: &Ubig) -> Ubig {
        self.ctx.pow_fixed_base(&self.fixed_base, x)
    }

    /// `g^(−x) mod u`, computed as `g^(u−1−x)` through the same
    /// fixed-base table — far cheaper than a Fermat inversion of `g^x`.
    pub fn inv_pow_g(&self, x: &Ubig) -> Ubig {
        self.pow_g(&self.neg_exponent(x))
    }

    /// The exponent `(u−1) − (x mod (u−1))`, so that `g^e = g^(−x)`: the
    /// one place the negation fold is written. The OT sender passes `a²`
    /// through it to turn `k¹`'s second general exponentiation into a
    /// comb walk. `x` is reduced only when it exceeds `u−1`.
    pub fn neg_exponent(&self, x: &Ubig) -> Ubig {
        if x.cmp_abs(&self.order) == Ordering::Greater {
            self.order.sub(&x.rem(&self.order))
        } else {
            self.order.sub(x)
        }
    }

    /// `base^x mod u`.
    pub fn pow(&self, base: &Ubig, x: &Ubig) -> Ubig {
        self.ctx.mod_pow(base, x)
    }

    /// `bases[i]^xs[i] mod u` for every `i`, equal to [`DhGroup::pow`]
    /// pair by pair. On 1024-bit groups and CPUs with AVX512-IFMA the
    /// pairs run eight at a time ([`MontgomeryCtx::mod_pow_many`]).
    ///
    /// # Panics
    ///
    /// Panics unless `bases` and `xs` have the same length.
    pub fn pow_many(&self, bases: &[Ubig], xs: &[Ubig]) -> Vec<Ubig> {
        self.ctx.mod_pow_many(bases, xs)
    }

    /// `a·b mod u`.
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        self.ctx.mod_mul(a, b)
    }

    /// `a / b mod u` (prime modulus inverse via Fermat).
    ///
    /// # Panics
    ///
    /// Panics if `b ≡ 0`.
    pub fn div(&self, a: &Ubig, b: &Ubig) -> Ubig {
        self.ctx.mod_mul(a, &self.ctx.mod_inv_prime(b))
    }

    /// Samples a random exponent in `[1, u−1)`.
    pub fn random_exponent(&self, rng: &mut StdRng) -> Ubig {
        loop {
            let x = Ubig::random_below(self.modulus(), rng);
            if !x.is_zero() {
                return x;
            }
        }
    }

    /// Serializes a group element to fixed-width big-endian bytes.
    pub fn encode_element(&self, e: &Ubig) -> Vec<u8> {
        e.to_be_bytes_padded(self.element_len())
    }

    /// Parses a fixed-width element, reducing modulo `u`.
    pub fn decode_element(&self, bytes: &[u8]) -> Ubig {
        Ubig::from_be_bytes(bytes).rem(self.modulus())
    }

    /// Verifies that the group modulus is prime (sanity check; expensive
    /// for the 1024-bit group, used in tests).
    pub fn check_prime(&self) -> bool {
        is_probable_prime(self.modulus())
    }
}

/// Process-wide cache of per-deployment group precomputation, keyed by
/// `(modulus, generator)`.
///
/// Building a [`DhGroup`] costs a full comb-table precomputation (~1.4 MB
/// and ~10 ms for MODP-1024), which must be paid once per *deployment
/// group*, never once per session: `SessionManager` shards, the parallel
/// drive, and the gateway all resolve their group through here. The
/// map is guarded by a plain mutex — after the first build per key, a
/// lookup is a hash probe plus an `Arc` clone, nowhere near any hot
/// loop.
pub struct PrecompCache {
    groups: Mutex<HashMap<(Vec<u8>, Vec<u8>), Arc<DhGroup>>>,
}

impl PrecompCache {
    /// The process-wide instance.
    pub fn global() -> &'static PrecompCache {
        static CACHE: OnceLock<PrecompCache> = OnceLock::new();
        CACHE.get_or_init(|| PrecompCache { groups: Mutex::new(HashMap::new()) })
    }

    /// Returns the cached group for `(modulus, generator)`, building its
    /// tables on first use. The build happens under the lock so a table
    /// is never computed twice by racing threads.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or zero (invalid Montgomery modulus).
    pub fn get(&self, modulus: &Ubig, generator: &Ubig) -> Arc<DhGroup> {
        let key = (modulus.to_be_bytes(), generator.to_be_bytes());
        let mut map = self.groups.lock().expect("precomp cache poisoned");
        map.entry(key)
            .or_insert_with(|| {
                Arc::new(DhGroup::with_params(modulus.clone(), generator.clone()))
            })
            .clone()
    }

    /// Number of distinct groups cached.
    pub fn len(&self) -> usize {
        self.groups.lock().expect("precomp cache poisoned").len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        assert_eq!(g.decode_element(&bytes), e);
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
    fn shared_group_matches_fresh_group() {
        let shared = DhGroup::modp_1024_shared();
        let fresh = DhGroup::modp_1024();
        assert_eq!(shared.modulus(), fresh.modulus());
        let x = Ubig::from_u64(123456789);
        assert_eq!(shared.pow_g(&x), fresh.pow_g(&x));
    }

    #[test]
    fn tiny_group_modulus_is_prime() {
        assert!(DhGroup::tiny_test_group().check_prime());
    }

    #[test]
    fn precomp_cache_returns_one_instance_per_key() {
        let cache = PrecompCache::global();
        let a = cache.get(&Ubig::from_u64((1u64 << 61) - 1), &Ubig::from_u64(37));
        let b = DhGroup::tiny_test_group_shared();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one table build");
        // Cached group behaves exactly like a fresh build.
        let fresh = DhGroup::tiny_test_group();
        let x = Ubig::from_u64(0xABCDEF);
        assert_eq!(a.pow_g(&x), fresh.pow_g(&x));
        assert_eq!((a.modulus(), a.generator()), (fresh.modulus(), fresh.generator()));
        // A different generator is a different cache entry.
        let c = cache.get(&Ubig::from_u64((1u64 << 61) - 1), &Ubig::from_u64(5));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(a.generator(), c.generator());
        assert!(!cache.is_empty());
    }

    #[test]
    #[ignore = "1024-bit Miller-Rabin is slow in debug; run with --ignored"]
    fn modp_1024_modulus_is_prime() {
        assert!(DhGroup::modp_1024().check_prime());
    }
}
