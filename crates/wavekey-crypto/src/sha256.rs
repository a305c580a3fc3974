//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used as the OT key-derivation hash `H(·)`, inside HMAC, and as the
//! keystream generator of the [`crate::cipher`] module.
//!
//! Every block goes through one compression function: on x86-64 CPUs
//! with the SHA extensions it runs the `sha256rnds2` kernel of the
//! `shani` module, elsewhere the scalar `portable_compress`, which is
//! also the kernel's oracle in the tests. Both return the same bits;
//! [`sha256_kernel`] names the one this process runs.

/// SHA-256 initial hash values.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// SHA-256 round constants.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

/// Computes the SHA-256 digest of `data`.
///
/// # Examples
///
/// ```
/// let digest = wavekey_crypto::sha256(b"abc");
/// assert_eq!(digest[0], 0xba);
/// assert_eq!(digest[31], 0xad);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Incremental SHA-256 that never allocates: whole blocks are compressed
/// straight from the input, and only a partial block is buffered.
pub(crate) struct Sha256 {
    h: [u32; 8],
    block: [u8; 64],
    /// Bytes buffered in `block`; always < 64 between calls.
    filled: usize,
    /// Total bytes hashed so far.
    len: u64,
}

impl Sha256 {
    pub(crate) fn new() -> Self {
        Sha256 {
            h: H0,
            block: [0; 64],
            filled: 0,
            len: 0,
        }
    }

    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = data.len().min(64 - self.filled);
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < 64 {
                return;
            }
            compress(&mut self.h, &self.block);
            self.filled = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.h, block.try_into().expect("64-byte chunk"));
        }
        let tail = blocks.remainder();
        self.block[..tail.len()].copy_from_slice(tail);
        self.filled = tail.len();
    }

    /// Pads with 0x80, zeros and the 64-bit big-endian bit length.
    pub(crate) fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        self.block[self.filled] = 0x80;
        self.block[self.filled + 1..].fill(0);
        if self.filled >= 56 {
            compress(&mut self.h, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.h, &self.block);

        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The SHA-256 compression function over one 64-byte block: the SHA
/// extensions kernel (the `shani` module) when the CPU has it,
/// [`portable_compress`] otherwise.
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if crate::shani::available() {
        // SAFETY: `available()` checked SHA, SSE2, SSSE3 and SSE4.1.
        return unsafe { crate::shani::compress(h, block) };
    }
    portable_compress(h, block)
}

/// Name of the SHA-256 compression kernel this process runs: `"shani"`
/// on x86-64 CPUs with the SHA extensions, `"portable"` elsewhere.
pub fn sha256_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::shani::available() {
        return "shani";
    }
    "portable"
}

/// The SHA-256 compression function over one 64-byte block, in scalar
/// Rust: the round loop of FIPS 180-4 §6.2.2.
pub(crate) fn portable_compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let (mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh) =
        (h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
    h[5] = h[5].wrapping_add(f);
    h[6] = h[6].wrapping_add(g);
    h[7] = h[7].wrapping_add(hh);
}

/// Hex encoding helper for tests and debugging.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// SHA-256 with the padding written out and every block run through
    /// [`portable_compress`]: the oracle for the streaming hasher and the
    /// dispatched kernel.
    fn portable_sha256(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        padded.resize((data.len() + 9).next_multiple_of(64) - 8, 0);
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = H0;
        for block in padded.chunks_exact(64) {
            portable_compress(&mut h, block.try_into().expect("64-byte block"));
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// FIPS 180-4 / NIST CAVP test vectors, through the dispatched kernel
    /// and through [`portable_sha256`].
    #[test]
    fn nist_vectors() {
        let vectors: [(&[u8], &str); 3] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (input, want) in vectors {
            assert_eq!(to_hex(&sha256(input)), want);
            assert_eq!(to_hex(&portable_sha256(input)), want);
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Known answers around the padding and block boundaries, for the
    /// input `(31·i + 7) mod 256`, computed with Python's `hashlib`.
    #[test]
    fn padding_boundary_known_answers() {
        let vectors = [
            (0usize, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"),
            (56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"),
            (63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"),
            (64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"),
            (65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"),
            (119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"),
            (120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"),
        ];
        for (len, want) in vectors {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            assert_eq!(to_hex(&sha256(&data)), want, "length {len}");
            assert_eq!(to_hex(&portable_sha256(&data)), want, "portable, length {len}");
            // Any split into two updates digests the same.
            for cut in [0, 1.min(len), len / 2, len.saturating_sub(1), len] {
                let mut hasher = Sha256::new();
                hasher.update(&data[..cut]);
                hasher.update(&data[cut..]);
                assert_eq!(to_hex(&hasher.finalize()), want, "length {len} cut {cut}");
            }
        }
    }

    /// The SHA extensions kernel against [`portable_compress`] on random
    /// states and blocks, and on the initial state with the all-zero and
    /// the all-ones block.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_matches_portable_compression() {
        if !crate::shani::available() {
            eprintln!(
                "skipped: this CPU lacks the SHA extensions; the portable kernel is the only path"
            );
            return;
        }
        let check = |h: [u32; 8], block: [u8; 64]| {
            let (mut fast, mut oracle) = (h, h);
            // SAFETY: `available()` returned true above.
            unsafe { crate::shani::compress(&mut fast, &block) };
            portable_compress(&mut oracle, &block);
            assert_eq!(fast, oracle, "state {h:08x?}, block {block:02x?}");
        };
        check(H0, [0; 64]);
        check(H0, [0xff; 64]);
        rand::check::cases("shani_matches_portable_compression", 256, |rng| {
            check(std::array::from_fn(|_| rng.gen()), std::array::from_fn(|_| rng.gen()));
        });
    }

    /// The streaming hasher on the dispatched kernel against
    /// [`portable_sha256`] at every length up to five blocks, and on one
    /// 130-byte input split into two updates at every point.
    #[test]
    fn sha256_matches_portable_at_every_length() {
        let mut rng = StdRng::seed_from_u64(320);
        let data: Vec<u8> = (0..320).map(|_| rng.gen()).collect();
        for len in 0..=data.len() {
            assert_eq!(sha256(&data[..len]), portable_sha256(&data[..len]), "length {len}");
        }
        let input = &data[..130];
        let want = portable_sha256(input);
        for cut in 0..=input.len() {
            let mut hasher = Sha256::new();
            hasher.update(&input[..cut]);
            hasher.update(&input[cut..]);
            assert_eq!(hasher.finalize(), want, "cut {cut}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths around the 55/56/64-byte padding boundaries must all
        // digest without panicking and give distinct results.
        let mut digests = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0x61u8; len];
            digests.insert(sha256(&data));
        }
        assert_eq!(digests.len(), 20);
    }

    #[test]
    fn avalanche() {
        let a = sha256(b"wavekey-test-input-0");
        let b = sha256(b"wavekey-test-input-1");
        let diff: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
        // ~128 bits should differ; anything above 80 shows good diffusion.
        assert!(diff > 80, "only {diff} bits differ");
    }
}
