//! The 16-limb (1024-bit) Montgomery product on BMI2/ADX rows (x86-64).
//!
//! The portable kernels in [`crate::bigint`] push every limb product
//! through one `u128` add/adc carry chain. `mulx` multiplies without
//! touching the flags, and `adcx`/`adox` add with carry through CF and
//! OF alone, so one row `t[0..16] += a·b` runs two independent carry
//! chains: the low product halves on CF, the high halves on OF.
//!
//! [`mont_mul_16`] builds the Montgomery product from that row: 16
//! product rows form the 32-limb `a·b`, then 16 REDC rows clear one low
//! limb each, with the carry out of each REDC row deferred exactly as in
//! the portable squaring kernel. Squaring reuses the same product: a
//! prototype triangle of variable-length asm rows measured no faster.
//! The result
//! is `(a·b + M·n)/R` with the same conditional subtraction as the
//! portable kernels, so it is bit-identical to them (the quotient
//! `M = −a·b·n⁻¹ mod R` is unique).
//!
//! The module compiles only on x86-64, and [`crate::bigint`] reaches
//! it only after [`available`] has returned `true`.

use crate::bigint::{limbs_ge, limbs_sub_in_place};
use std::arch::asm;
use std::sync::OnceLock;

/// `true` when this CPU has BMI2 (`mulx`) and ADX (`adcx`/`adox`).
/// Detected once per process.
pub(crate) fn available() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| is_x86_feature_detected!("bmi2") && is_x86_feature_detected!("adx"))
}

/// One limb step of [`row`]: `t[j] += lo(a[j]·b) + hi(a[j−1]·b)`, with
/// `{hi}` still holding the high half of the previous step's product.
#[rustfmt::skip]
macro_rules! row_step {
    ($off:literal) => {
        concat!(
            "mov {acc}, qword ptr [{t} + ", stringify!($off), "]\n",
            "adox {acc}, {hi}\n",
            "mulx {hi}, {lo}, qword ptr [{a} + ", stringify!($off), "]\n",
            "adcx {acc}, {lo}\n",
            "mov qword ptr [{t} + ", stringify!($off), "], {acc}\n",
        )
    };
}

/// `t[0..16] += a·b`, returning the carry word (limb 16 of the sum).
///
/// # Safety
///
/// The CPU must support BMI2 and ADX ([`available`]).
#[inline(always)]
unsafe fn row(t: &mut [u64; 16], a: &[u64; 16], b: u64) -> u64 {
    let carry: u64;
    // SAFETY: every access is inside the 16-limb arrays `t` and `a`; the
    // caller guarantees `mulx`, `adcx` and `adox` exist on this CPU.
    unsafe {
        asm!(
            // Zeroing `z` clears CF and OF: both chains start empty.
            "xor {z:e}, {z:e}",
            "mov {acc}, qword ptr [{t}]",
            "mulx {hi}, {lo}, qword ptr [{a}]",
            "adcx {acc}, {lo}",
            "mov qword ptr [{t}], {acc}",
            row_step!(8),
            row_step!(16),
            row_step!(24),
            row_step!(32),
            row_step!(40),
            row_step!(48),
            row_step!(56),
            row_step!(64),
            row_step!(72),
            row_step!(80),
            row_step!(88),
            row_step!(96),
            row_step!(104),
            row_step!(112),
            row_step!(120),
            // Limb 16 is the last high half plus both chains' carries;
            // t + a·b < 2^1088, so neither addition overflows.
            "adox {hi}, {z}",
            "adcx {hi}, {z}",
            t = in(reg) t.as_mut_ptr(),
            a = in(reg) a.as_ptr(),
            in("rdx") b,
            acc = out(reg) _,
            lo = out(reg) _,
            hi = out(reg) carry,
            z = out(reg) _,
            options(nostack),
        );
    }
    carry
}

/// Borrows a 16-limb window of `t` starting at limb `at`.
fn window(t: &mut [u64; 32], at: usize) -> &mut [u64; 16] {
    (&mut t[at..at + 16]).try_into().expect("16-limb window")
}

/// Views a Montgomery operand as exactly 16 limbs.
fn limbs16(x: &[u64]) -> &[u64; 16] {
    x.try_into().expect("16-limb Montgomery operand")
}

/// `out = a·b·R⁻¹ mod n` at 16 limbs, `==` to the portable
/// `cios_mont_mul` for every 16-limb `a`, `b` (squaring passes `a`
/// twice).
///
/// # Safety
///
/// The CPU must support BMI2 and ADX: call only after [`available`]
/// returned `true`.
///
/// # Panics
///
/// Panics unless every slice is exactly 16 limbs.
pub(crate) unsafe fn mont_mul_16(n: &[u64], n_prime: u64, a: &[u64], b: &[u64], out: &mut [u64]) {
    let (n, a, b) = (limbs16(n), limbs16(a), limbs16(b));
    let mut t = [0u64; 32];
    // Product rows: row i adds a·b[i] at limb i; its carry lands on
    // limb i + 16, which no earlier row has written.
    for (i, &bi) in b.iter().enumerate() {
        // SAFETY: the caller checked BMI2 and ADX.
        t[i + 16] = unsafe { row(window(&mut t, i), a, bi) };
    }
    // REDC rows: row i adds m·n at limb i so that limb i becomes zero.
    // The carry out of limb i + 16 is deferred into `top` and lands on
    // limb i + 17 next row, which that row's window does not reach.
    let mut top = 0u64;
    for i in 0..16 {
        let m = t[i].wrapping_mul(n_prime);
        // SAFETY: the caller checked BMI2 and ADX.
        let carry = unsafe { row(window(&mut t, i), n, m) };
        let (s, c1) = t[i + 16].overflowing_add(carry);
        let (s, c2) = s.overflowing_add(top);
        t[i + 16] = s;
        top = u64::from(c1 | c2);
    }
    // (a·b + M·n)/R < 2^1024 + n: `top` is its bit 1024, and the
    // portable kernels' conditional subtraction normalizes it.
    let r = &mut t[16..];
    if top != 0 || limbs_ge(r, n) {
        limbs_sub_in_place(r, n);
    }
    out.copy_from_slice(r);
}
