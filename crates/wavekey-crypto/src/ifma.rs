//! 1024-bit modular exponentiations eight at a time on AVX-512 IFMA
//! lanes (x86-64).
//!
//! `vpmadd52luq` and `vpmadd52huq` multiply eight pairs of 52-bit
//! integers and add the low or the high 52 bits of each 104-bit product
//! to a 64-bit accumulator. One zmm register therefore holds limb `j` of
//! eight independent numbers, and [`mod_pow_8`] and [`comb_8`] each run
//! eight exponentiations, one per lane, through a single instruction
//! stream.
//!
//! * Representation: 20 limbs of 52 bits per lane (1040 bits), so the
//!   Montgomery radix is `R = 2^1040` and `k0 = −n⁻¹ mod 2^52`.
//! * The product is Gueron's almost-Montgomery multiplication: it
//!   returns `(a·b + m·n)/R` with no final subtraction. For `a, b < 2n`
//!   that is below `2n`, because `4n < R` for every 16-limb modulus, so
//!   operands stay below `2n` through a whole exponentiation. One
//!   conditional subtraction after leaving Montgomery form gives the
//!   canonical residue, the same integer [`crate::bigint`]'s scalar
//!   kernels return.
//! * [`mod_pow_8`] (general bases) uses fixed 5-bit windows over at
//!   least 1024 exponent bits. Every window squares five times and
//!   multiplies once, with `tbl[0] = 1` absorbing zero digits, and the
//!   table entry is read by a masked scan over all 32 entries.
//! * [`comb_8`] (one fixed base) walks a [`CombTable`] of the base's
//!   powers in 5-bit windows: one product per window and no squarings.
//!   Each window's entry is read by a masked scan over all 31 of its
//!   entries, and digit 0 multiplies by Montgomery one.
//!
//! In both walks the instruction stream and the addresses it touches do
//! not depend on the exponents. The module compiles only on x86-64, and
//! [`crate::bigint`] reaches it only after [`available`] has returned
//! `true`.

use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Exponentiations per [`mod_pow_8`] or [`comb_8`] call: one per 64-bit
/// lane of a zmm register.
pub(crate) const LANES: usize = 8;
/// 52-bit limbs per lane: 20 · 52 = 1040 bits, so `R = 2^1040 > 4n`.
const LIMBS: usize = 20;
/// Bits of the Montgomery radix `R`.
pub(crate) const R_BITS: usize = 52 * LIMBS;
const MASK52: u64 = (1 << 52) - 1;
/// Fixed window width in exponent bits.
pub(crate) const WINDOW: usize = 5;
/// Entries in the per-call window table.
const TABLE: usize = 1 << WINDOW;
/// Windows of a [`CombTable`]: ⌈1024/5⌉.
pub(crate) const COMB_WINDOWS: usize = 1024usize.div_ceil(WINDOW);
/// The widest exponent a [`CombTable`] covers: 205 · 5 = 1025 bits.
pub(crate) const COMB_BITS: usize = COMB_WINDOWS * WINDOW;
/// Entries per comb window, digits 1–31; digit 0 reads Montgomery one.
const COMB_DIGITS: usize = TABLE - 1;

/// Limb `j` of eight lanes per register.
type Num = [__m512i; LIMBS];

/// `true` when this CPU has AVX-512F and AVX512-IFMA. Detected once per
/// process.
pub(crate) fn available() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
    })
}

/// Per-modulus constants for [`mod_pow_8`], [`comb_table`] and
/// [`comb_8`], built once per [`crate::bigint::MontgomeryCtx`].
#[derive(Debug, Clone)]
pub(crate) struct Consts {
    /// The modulus as 16 `u64` limbs, for the final subtraction.
    n64: [u64; 16],
    /// The modulus in radix 2^52.
    n: [u64; LIMBS],
    /// `−n⁻¹ mod 2^52`.
    k0: u64,
    /// `R² mod n`, for conversion into Montgomery form.
    rr: [u64; LIMBS],
    /// `R mod n`, Montgomery `1`.
    one: [u64; LIMBS],
}

impl Consts {
    /// Constants for the 16-limb odd modulus `n` (little-endian `u64`
    /// limbs), with `n_prime = −n⁻¹ mod 2^64`, `rr = 2^2080 mod n` and
    /// `one = 2^1040 mod n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is exactly 16 limbs.
    pub(crate) fn new(n: &[u64], n_prime: u64, rr: &[u64], one: &[u64]) -> Consts {
        Consts {
            n64: n.try_into().expect("16-limb modulus"),
            n: to_radix52(n),
            k0: n_prime & MASK52,
            rr: to_radix52(rr),
            one: to_radix52(one),
        }
    }
}

/// The powers of one fixed base `g` that [`comb_8`] walks, in lane
/// Montgomery form.
///
/// Entry `(i, d)`, for window `i < 205` and digit `d` in 1–31, is
/// `g^(d·2^(5i))·R mod n` below `2n`, as 20 radix-2^52 limbs. The 127,100
/// limbs are one flat slice, 1,016,800 bytes. A table exists only once
/// [`comb_table`] has run, so holding one means the CPU has AVX-512F and
/// AVX512-IFMA.
#[derive(Debug, Clone)]
pub(crate) struct CombTable {
    /// Entry `(i, d)` at `[((i·31) + d − 1)·20..][..20]`.
    entries: Vec<u64>,
}

/// `x` (little-endian `u64` limbs, below 2^1040) in radix 2^52.
fn to_radix52(x: &[u64]) -> [u64; LIMBS] {
    std::array::from_fn(|j| {
        let (w, s) = (52 * j / 64, 52 * j % 64);
        let lo = x.get(w).map_or(0, |&v| v >> s);
        // A limb starting above bit 12 of a word spills into the next.
        let hi = if s > 12 {
            x.get(w + 1).map_or(0, |&v| v << (64 - s))
        } else {
            0
        };
        (lo | hi) & MASK52
    })
}

/// A normalized radix-2^52 value below 2^1024 as 16 `u64` limbs.
fn from_radix52(x: &[u64; LIMBS]) -> [u64; 16] {
    let mut out = [0u64; 17];
    for (j, &v) in x.iter().enumerate() {
        let (w, s) = (52 * j / 64, 52 * j % 64);
        out[w] |= v << s;
        if s > 12 {
            out[w + 1] |= v >> (64 - s);
        }
    }
    debug_assert_eq!(out[16], 0, "value above 2^1024");
    out[..16].try_into().expect("16 limbs")
}

/// Bit length of a little-endian limb slice.
fn bit_len(x: &[u64]) -> usize {
    x.iter()
        .rposition(|&v| v != 0)
        .map_or(0, |i| 64 * i + 64 - x[i].leading_zeros() as usize)
}

/// The `WINDOW`-bit digit of each lane's exponent starting at bit `at`.
fn digits(exps: &[&[u64]; LANES], at: usize) -> [u64; LANES] {
    let (w, s) = (at / 64, at % 64);
    exps.map(|e| {
        let lo = e.get(w).map_or(0, |&v| v >> s);
        let hi = if s > 64 - WINDOW {
            e.get(w + 1).map_or(0, |&v| v << (64 - s))
        } else {
            0
        };
        (lo | hi) & (TABLE as u64 - 1)
    })
}

/// `x − n` when `x ≥ n`, else `x`, over 16 limbs, chosen by a mask
/// rather than a branch.
fn sub_if_ge(x: [u64; 16], n: &[u64; 16]) -> [u64; 16] {
    let mut d = [0u64; 16];
    let mut borrow = 0u64;
    for i in 0..16 {
        let (t, b1) = x[i].overflowing_sub(n[i]);
        let (t, b2) = t.overflowing_sub(borrow);
        d[i] = t;
        borrow = u64::from(b1 | b2);
    }
    // All ones when the subtraction did not borrow, that is when x ≥ n.
    let keep_d = std::hint::black_box(borrow).wrapping_sub(1);
    std::array::from_fn(|i| (d[i] & keep_d) | (x[i] & !keep_d))
}

/// `bases[l]^exps[l] mod n` for the eight lanes `l`, each result the
/// canonical residue in 16 little-endian limbs, equal to
/// `MontgomeryCtx::mod_pow` lane for lane.
///
/// Every base must be below `n`. Exponents of any width are accepted;
/// the window count is `⌈max(1024, widest exponent bits)/5⌉`.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX512-IFMA: call only after
/// [`available`] returned `true`.
pub(crate) unsafe fn mod_pow_8(
    c: &Consts,
    bases: &[&[u64]; LANES],
    exps: &[&[u64]; LANES],
) -> [[u64; 16]; LANES] {
    let bases = bases.map(to_radix52);
    let bits = exps.iter().map(|e| bit_len(e)).max().unwrap_or(0).max(1024);
    // SAFETY: the caller guarantees AVX-512F and AVX512-IFMA.
    unsafe { pow_lanes(c, &bases, exps, bits.div_ceil(WINDOW)) }
}

/// The comb table of the base whose window bases are `bases`:
/// `bases[i]` must be `g^(2^(5i)) mod n`, below `n`, for each of the
/// [`COMB_WINDOWS`] windows.
///
/// Eight windows go through each lane pass: one product by `R² mod n`
/// moves them into Montgomery form (digit 1), and 30 products form
/// digits 2–31.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX512-IFMA: call only after
/// [`available`] returned `true`.
///
/// # Panics
///
/// Panics unless there are exactly [`COMB_WINDOWS`] bases.
pub(crate) unsafe fn comb_table(c: &Consts, bases: &[[u64; 16]]) -> CombTable {
    assert_eq!(bases.len(), COMB_WINDOWS, "one base per comb window");
    // SAFETY: the caller guarantees AVX-512F and AVX512-IFMA.
    unsafe { build_comb(c, bases) }
}

/// `g^exps[l] mod n` for the eight lanes `l`, from the comb table `t` of
/// `g`, each result the canonical residue in 16 little-endian limbs,
/// equal to `MontgomeryCtx::mod_pow(g, exps[l])` lane for lane.
///
/// Every exponent must be at most [`COMB_BITS`] wide; higher bits are
/// not read.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX512-IFMA: call only after
/// [`available`] returned `true`, or with a table, which only exists
/// after it did.
pub(crate) unsafe fn comb_8(
    c: &Consts,
    t: &CombTable,
    exps: &[&[u64]; LANES],
) -> [[u64; 16]; LANES] {
    debug_assert!(
        exps.iter().all(|e| bit_len(e) <= COMB_BITS),
        "exponent wider than the comb"
    );
    // SAFETY: the caller guarantees AVX-512F and AVX512-IFMA.
    unsafe { comb_lanes(c, t, exps) }
}

/// One register per limb, every lane holding `x[j]`.
#[target_feature(enable = "avx512f")]
fn splat(x: &[u64; LIMBS]) -> Num {
    let mut out = [_mm512_setzero_si512(); LIMBS];
    for (o, &v) in out.iter_mut().zip(x) {
        *o = _mm512_set1_epi64(v as i64);
    }
    out
}

/// Eight lane values as one register.
#[target_feature(enable = "avx512f")]
fn load(x: &[u64; LANES]) -> __m512i {
    // SAFETY: `x` is 64 readable bytes; `loadu` needs no alignment.
    unsafe { _mm512_loadu_si512(x.as_ptr().cast()) }
}

/// Eight radix-2^52 numbers, number `l` in lane `l`.
#[target_feature(enable = "avx512f")]
fn to_lanes(xs: &[[u64; LIMBS]; LANES]) -> Num {
    let mut out = [_mm512_setzero_si512(); LIMBS];
    for (j, limb) in out.iter_mut().enumerate() {
        *limb = load(&xs.map(|x| x[j]));
    }
    out
}

/// The eight numbers of `x`'s lanes, the inverse of [`to_lanes`].
#[target_feature(enable = "avx512f")]
fn from_lanes(x: &Num) -> [[u64; LIMBS]; LANES] {
    let mut lanes = [[0u64; LIMBS]; LANES];
    for (j, limb) in x.iter().enumerate() {
        let mut row = [0u64; LANES];
        // SAFETY: `row` is 64 writable bytes; `storeu` needs no alignment.
        unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), *limb) };
        for (lane, &v) in lanes.iter_mut().zip(&row) {
            lane[j] = v;
        }
    }
    lanes
}

/// Each lane of the Montgomery-form `acc` (below `2n`) as its canonical
/// residue in 16 little-endian limbs: a product by plain 1 leaves
/// Montgomery form with a value at most `n`, and [`sub_if_ge`] reduces
/// it.
#[target_feature(enable = "avx512f,avx512ifma")]
fn leave(c: &Consts, acc: &Num, n: &Num, k0: __m512i) -> [[u64; 16]; LANES] {
    let mut unit = [_mm512_setzero_si512(); LIMBS];
    unit[0] = _mm512_set1_epi64(1);
    from_lanes(&amm(acc, &unit, n, k0)).map(|r| sub_if_ge(from_radix52(&r), &c.n64))
}

/// The fixed-window exponentiation over `windows` windows.
#[target_feature(enable = "avx512f,avx512ifma")]
fn pow_lanes(
    c: &Consts,
    bases: &[[u64; LIMBS]; LANES],
    exps: &[&[u64]; LANES],
    windows: usize,
) -> [[u64; 16]; LANES] {
    let zero = _mm512_setzero_si512();
    let n = splat(&c.n);
    let k0 = _mm512_set1_epi64(c.k0 as i64);
    // tbl[d] = base^d in Montgomery form: 32 entries of 20 registers,
    // 40 KiB on the stack.
    let mut tbl = [[zero; LIMBS]; TABLE];
    tbl[0] = splat(&c.one);
    tbl[1] = amm(&to_lanes(bases), &splat(&c.rr), &n, k0);
    for d in 2..TABLE {
        tbl[d] = amm(&tbl[d - 1], &tbl[1], &n, k0);
    }
    let mut acc = select(&tbl, load(&digits(exps, (windows - 1) * WINDOW)));
    for w in (0..windows - 1).rev() {
        for _ in 0..WINDOW {
            acc = amm(&acc, &acc, &n, k0);
        }
        let entry = select(&tbl, load(&digits(exps, w * WINDOW)));
        acc = amm(&acc, &entry, &n, k0);
    }
    leave(c, &acc, &n, k0)
}

/// The lane passes of [`comb_table`].
#[target_feature(enable = "avx512f,avx512ifma")]
fn build_comb(c: &Consts, bases: &[[u64; 16]]) -> CombTable {
    let n = splat(&c.n);
    let k0 = _mm512_set1_epi64(c.k0 as i64);
    let rr = splat(&c.rr);
    let mut entries = vec![0u64; COMB_WINDOWS * COMB_DIGITS * LIMBS];
    for (pass, windows) in bases.chunks(LANES).enumerate() {
        // Lane l carries window 8·pass + l; lanes past the last window
        // carry 0, and are not stored.
        let lane_bases =
            std::array::from_fn(|l| windows.get(l).map_or([0; LIMBS], |b| to_radix52(b)));
        let first = amm(&to_lanes(&lane_bases), &rr, &n, k0);
        let mut power = first;
        for d in 1..=COMB_DIGITS {
            if d > 1 {
                power = amm(&power, &first, &n, k0);
            }
            for (l, lane) in from_lanes(&power).iter().take(windows.len()).enumerate() {
                let i = pass * LANES + l;
                entries[(i * COMB_DIGITS + d - 1) * LIMBS..][..LIMBS].copy_from_slice(lane);
            }
        }
    }
    CombTable { entries }
}

/// The comb walk of [`comb_8`]: one product per window, none skipped.
#[target_feature(enable = "avx512f,avx512ifma")]
fn comb_lanes(c: &Consts, t: &CombTable, exps: &[&[u64]; LANES]) -> [[u64; 16]; LANES] {
    let n = splat(&c.n);
    let k0 = _mm512_set1_epi64(c.k0 as i64);
    let one = splat(&c.one);
    let mut acc = scan(t, 0, load(&digits(exps, 0)), &one);
    for i in 1..COMB_WINDOWS {
        let entry = scan(t, i, load(&digits(exps, i * WINDOW)), &one);
        acc = amm(&acc, &entry, &n, k0);
    }
    leave(c, &acc, &n, k0)
}

/// Window `i`'s entry for each lane's digit, starting from Montgomery
/// `one` (digit 0) and overwritten by a masked broadcast of every
/// entry's limbs, so no load address depends on a digit.
#[target_feature(enable = "avx512f")]
fn scan(t: &CombTable, i: usize, digits: __m512i, one: &Num) -> Num {
    let mut out = *one;
    let window = &t.entries[i * COMB_DIGITS * LIMBS..][..COMB_DIGITS * LIMBS];
    for (d, entry) in (1..).zip(window.chunks_exact(LIMBS)) {
        let hit = _mm512_cmpeq_epi64_mask(digits, _mm512_set1_epi64(d));
        for (o, &e) in out.iter_mut().zip(entry) {
            *o = _mm512_mask_set1_epi64(*o, hit, e as i64);
        }
    }
    out
}

/// The table entry each lane's digit selects, read by a masked move
/// from every entry, so no load address depends on a digit.
#[target_feature(enable = "avx512f")]
fn select(tbl: &[Num; TABLE], digits: __m512i) -> Num {
    let mut out = [_mm512_setzero_si512(); LIMBS];
    for (d, entry) in tbl.iter().enumerate() {
        let hit = _mm512_cmpeq_epi64_mask(digits, _mm512_set1_epi64(d as i64));
        for (o, &e) in out.iter_mut().zip(entry) {
            *o = _mm512_mask_mov_epi64(*o, hit, e);
        }
    }
    out
}

/// Almost-Montgomery product `(a·b + m·n)/R`, lane by lane, for
/// normalized `a`, `b < 2n`; the result is normalized and below `2n`.
///
/// Row `i` adds `a·b[i]` and `m·n` into 20 accumulators with `m` chosen
/// to clear the low limb, then drops that limb. Rows are unrolled and
/// the frame rotates through constant indices (position `j` of row `i`
/// lives in `acc[(i + j) % 20]`), so the accumulators stay in registers.
/// Each accumulator gains at most four 52-bit halves per row over at
/// most 20 rows, well inside 64 bits, so carries wait until the end.
#[target_feature(enable = "avx512f,avx512ifma")]
#[inline(never)]
fn amm(a: &Num, b: &Num, n: &Num, k0: __m512i) -> Num {
    let zero = _mm512_setzero_si512();
    let mut acc = [zero; LIMBS];
    macro_rules! row {
        ($($i:literal)*) => {$({
            let bi = b[$i];
            for j in 0..LIMBS {
                let s = ($i + j) % LIMBS;
                acc[s] = _mm512_madd52lo_epu64(acc[s], a[j], bi);
            }
            // The REDC quotient: one 52-bit multiply-add, not a vpmullq.
            let m = _mm512_madd52lo_epu64(zero, acc[$i % LIMBS], k0);
            for j in 0..LIMBS {
                let s = ($i + j) % LIMBS;
                acc[s] = _mm512_madd52lo_epu64(acc[s], n[j], m);
            }
            // The low limb is now a multiple of 2^52: carry it up and
            // reuse its register as the next frame's top limb.
            let carry = _mm512_srli_epi64::<52>(acc[$i % LIMBS]);
            acc[$i % LIMBS] = zero;
            acc[($i + 1) % LIMBS] = _mm512_add_epi64(acc[($i + 1) % LIMBS], carry);
            // High halves land one limb up, position j of the next frame.
            for j in 0..LIMBS {
                let s = ($i + 1 + j) % LIMBS;
                acc[s] = _mm512_madd52hi_epu64(acc[s], a[j], bi);
                acc[s] = _mm512_madd52hi_epu64(acc[s], n[j], m);
            }
        })*};
    }
    row!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);
    // After 20 rows position j is back in acc[j]; normalize to 52 bits.
    let mask = _mm512_set1_epi64(MASK52 as i64);
    for j in 0..LIMBS - 1 {
        let carry = _mm512_srli_epi64::<52>(acc[j]);
        acc[j] = _mm512_and_si512(acc[j], mask);
        acc[j + 1] = _mm512_add_epi64(acc[j + 1], carry);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix52_roundtrips() {
        let x: [u64; 16] =
            std::array::from_fn(|i| 0x0123_4567_89ab_cdef_u64.rotate_left(i as u32 * 7));
        assert_eq!(from_radix52(&to_radix52(&x)), x);
        assert_eq!(from_radix52(&to_radix52(&[u64::MAX; 16])), [u64::MAX; 16]);
        assert!(to_radix52(&[u64::MAX; 16]).iter().all(|&l| l <= MASK52));
    }

    #[test]
    fn digits_span_word_boundaries() {
        let e = [0xF800_0000_0000_0000u64, 0x3];
        let exps = [&e[..]; LANES];
        // Bits 59..=65 are set, bit 66 is clear.
        assert_eq!(digits(&exps, 59), [0b1_1111; LANES]);
        assert_eq!(digits(&exps, 62), [0b0_1111; LANES]);
        assert_eq!(digits(&exps, 128), [0; LANES]);
        assert_eq!(bit_len(&e), 66);
        assert_eq!(bit_len(&[0, 0]), 0);
    }

    #[test]
    fn comb_entries_leave_montgomery_form_as_generator_powers() {
        if !available() {
            eprintln!("skipped: this CPU lacks AVX512-IFMA");
            return;
        }
        use crate::bigint::{MontgomeryCtx, Ubig};
        use crate::group::MODP_1024_HEX;
        let u = Ubig::from_hex(MODP_1024_HEX);
        let limbs = |x: &Ubig| -> [u64; 16] {
            let be = x.to_be_bytes_padded(128);
            std::array::from_fn(|i| {
                u64::from_be_bytes(be[128 - 8 * (i + 1)..][..8].try_into().unwrap())
            })
        };
        // `MontgomeryCtx::new`'s constants: n' by Newton iteration on the
        // low limb (MODP-1024's is all ones, so n' = 1), R² and R mod n.
        let n = limbs(&u);
        let n_prime = (0..5).fold(n[0], |inv, _| {
            inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)))
        });
        let [rr, one] = [2 * R_BITS, R_BITS].map(|bits| limbs(&Ubig::one().shl(bits).rem(&u)));
        let c = Consts::new(&n, n_prime.wrapping_neg(), &rr, &one);
        let ctx = MontgomeryCtx::new(u.clone());
        let g = Ubig::from_u64(2);
        let bases: Vec<[u64; 16]> = (0..COMB_WINDOWS)
            .map(|i| limbs(&ctx.mod_pow(&g, &Ubig::one().shl(WINDOW * i))))
            .collect();
        // SAFETY: `available()` returned true above.
        let t = unsafe { comb_table(&c, &bases) };
        assert_eq!(t.entries.len() * 8, 1_016_800);
        let two_n = u.add(&u);
        for i in [0, COMB_WINDOWS / 2, COMB_WINDOWS - 1] {
            for d in 1..=COMB_DIGITS {
                let entry: [u64; LIMBS] = t.entries[(i * COMB_DIGITS + d - 1) * LIMBS..][..LIMBS]
                    .try_into()
                    .unwrap();
                let value = entry
                    .iter()
                    .rev()
                    .fold(Ubig::zero(), |v, &l| v.shl(52).add(&Ubig::from_u64(l)));
                assert!(
                    value.cmp_abs(&two_n).is_lt(),
                    "entry ({i}, {d}) not below 2n"
                );
                // SAFETY: `available()` returned true above.
                let plain = unsafe {
                    leave(
                        &c,
                        &to_lanes(&[entry; LANES]),
                        &splat(&c.n),
                        _mm512_set1_epi64(c.k0 as i64),
                    )
                };
                let want = ctx.mod_pow(&g, &Ubig::from_u64(d as u64).shl(WINDOW * i));
                assert_eq!(plain, [limbs(&want); LANES], "entry ({i}, {d})");
            }
        }
    }

    #[test]
    fn masked_subtraction_picks_the_reduced_value() {
        let n: [u64; 16] = std::array::from_fn(|i| if i == 15 { 1 << 63 } else { 7 });
        assert_eq!(sub_if_ge(n, &n), [0; 16]);
        let mut below = n;
        below[0] -= 1;
        assert_eq!(sub_if_ge(below, &n), below);
    }
}
