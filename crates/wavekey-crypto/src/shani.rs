//! The SHA-256 compression function on the x86 SHA extensions (x86-64).
//!
//! `sha256rnds2` runs two rounds on a state split across two registers,
//! ABEF and CDGH, taking the two rounds' `W[t] + K[t]` from the low half
//! of a third register. `sha256msg1` and `sha256msg2` compute the
//! message schedule four words at a time. [`compress`] therefore runs a
//! block as 16 groups of four rounds: each group adds four round
//! constants to four schedule words and runs two `sha256rnds2`, and
//! from group 4 on it first derives its words from the previous 16.
//!
//! The instruction stream and every address it touches are the same for
//! every state and block, as in [`crate::sha256::portable_compress`],
//! whose bits it returns. The module compiles only on x86-64, and
//! [`crate::sha256`] reaches it only after [`available`] has returned
//! `true`.

use crate::sha256::K;
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// `true` when this CPU has the SHA extensions and the SSE2, SSSE3 and
/// SSE4.1 shuffles [`compress`] packs the state with. Detected once per
/// process.
pub(crate) fn available() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    })
}

/// `W[t..t+4]` from the 16 words before it, `w` holding `W[t−16..t]` as
/// four vectors: `sha256msg1` adds σ0, `palignr` picks out `W[t−7..t−3]`,
/// and `sha256msg2` adds σ1.
#[target_feature(enable = "sha,sse2,ssse3")]
fn schedule(w: &[__m128i]) -> __m128i {
    let s0 = _mm_sha256msg1_epu32(w[0], w[1]);
    let w7 = _mm_alignr_epi8(w[3], w[2], 4);
    _mm_sha256msg2_epu32(_mm_add_epi32(s0, w7), w[3])
}

/// Runs one 64-byte block through the compression function, updating
/// `h` in place. Returns the same bits as
/// [`crate::sha256::portable_compress`] for every `h` and `block`.
///
/// # Safety
///
/// The CPU must support SHA, SSE2, SSSE3 and SSE4.1: call only after
/// [`available`] returned `true`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
pub(crate) unsafe fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    // SAFETY: `h` is 32 bytes, two unaligned 16-byte loads.
    let (dcba, hgfe) = unsafe {
        let p = h.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    // Packs A..H as ABEF and CDGH (lanes named high to low).
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
    let (abef_in, cdgh_in) = (abef, cdgh);

    // The message schedule, four words per vector. The block's words are
    // big-endian, so one mask byte-swaps each 32-bit lane.
    let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let mut w = [_mm_setzero_si128(); 16];
    for (i, v) in w[..4].iter_mut().enumerate() {
        // SAFETY: `block` is 64 bytes, so load `i < 4` of 16 bytes is in
        // bounds.
        let words = unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>().add(i)) };
        *v = _mm_shuffle_epi8(words, swap);
    }
    for group in 0..16 {
        if group >= 4 {
            w[group] = schedule(&w[group - 4..group]);
        }
        // SAFETY: `K` has 64 words, so words 4·group..4·group + 4 are in
        // bounds for every group below 16.
        let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * group).cast::<__m128i>()) };
        let wk = _mm_add_epi32(w[group], k);
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    // Feed-forward, then unpack ABEF/CDGH back into A..H.
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    // SAFETY: `h` is 32 bytes, two unaligned 16-byte stores.
    unsafe {
        let p = h.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(p.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}
