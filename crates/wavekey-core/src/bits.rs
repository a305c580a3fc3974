//! Bit-vector helpers shared by the key-agreement protocol.
//!
//! Key-seeds, OT payload sequences, and preliminary keys are all bit
//! strings; this module provides packing to bytes (MSB-first), mismatch
//! counting, and the block interleaving that spreads the clustered bit
//! errors of a wrong OT segment across ECC blocks.

/// Packs bits (MSB-first within each byte) into bytes, zero-padding the
/// final byte.
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (7 - i % 8);
        }
    }
    out
}

/// Unpacks `n` bits from bytes (MSB-first).
///
/// # Panics
///
/// Panics if `bytes` holds fewer than `n` bits.
pub fn unpack_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    assert!(bytes.len() * 8 >= n, "not enough bytes for {n} bits");
    (0..n).map(|i| (bytes[i / 8] >> (7 - i % 8)) & 1 == 1).collect()
}

/// A bit string packed into `u64` words: bit `i` sits at bit `i % 64` of
/// word `i / 64`. The protocol machines hold their seeds, sequence pairs
/// and preliminary keys in this form, one heap block each instead of a
/// byte per bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// An empty string with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> PackedBits {
        PackedBits { words: Vec::with_capacity(bits.div_ceil(64)), len: 0 }
    }

    /// Packs `bits`.
    pub fn from_bools(bits: &[bool]) -> PackedBits {
        let mut out = PackedBits::with_capacity(bits.len());
        for &b in bits {
            out.push(b);
        }
        out
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for the empty string.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} of {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.words[self.len / 64] |= u64::from(bit) << (self.len % 64);
        self.len += 1;
    }

    /// Appends the first `n` bits of `bytes`, MSB-first within each byte
    /// (the bits [`unpack_bits`] returns).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `n` bits.
    pub fn extend_from_msb_bytes(&mut self, bytes: &[u8], n: usize) {
        assert!(bytes.len() * 8 >= n, "not enough bytes for {n} bits");
        for i in 0..n {
            self.push((bytes[i / 8] >> (7 - i % 8)) & 1 == 1);
        }
    }

    /// The bits, one `bool` each.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Number of positions where `self` and `other` disagree.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn hamming_distance(&self, other: &PackedBits) -> usize {
        assert_eq!(self.len, other.len, "length mismatch in hamming distance");
        self.words.iter().zip(&other.words).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
    }
}

/// Number of positions where the two bit strings disagree.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn hamming_distance(a: &[bool], b: &[bool]) -> usize {
    assert_eq!(a.len(), b.len(), "length mismatch in hamming distance");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Fraction of mismatched bits.
///
/// # Panics
///
/// Panics on length mismatch or empty input.
pub fn mismatch_rate(a: &[bool], b: &[bool]) -> f64 {
    assert!(!a.is_empty(), "mismatch rate of empty strings");
    hamming_distance(a, b) as f64 / a.len() as f64
}

/// Block-interleaves `bits` (padded with `false` to `blocks × block_len`):
/// source position `p` maps to block `p mod blocks`, offset `p / blocks`.
///
/// A wrong OT segment corrupts `2·l_b` *consecutive* bits of the
/// preliminary key; interleaving spreads them evenly over the ECC blocks
/// so each block stays within its correction radius.
pub fn interleave(bits: &[bool], blocks: usize, block_len: usize) -> Vec<bool> {
    assert!(blocks > 0 && block_len > 0, "empty interleaver geometry");
    let total = blocks * block_len;
    assert!(bits.len() <= total, "bits do not fit the interleaver");
    let mut out = vec![false; total];
    for (p, &b) in bits.iter().enumerate() {
        out[(p % blocks) * block_len + p / blocks] = b;
    }
    out
}

/// Inverts [`interleave`], returning the first `n` original bits.
pub fn deinterleave(bits: &[bool], blocks: usize, block_len: usize, n: usize) -> Vec<bool> {
    assert_eq!(bits.len(), blocks * block_len, "wrong interleaved length");
    assert!(n <= bits.len(), "cannot recover more bits than stored");
    (0..n).map(|p| bits[(p % blocks) * block_len + p / blocks]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let bits = vec![true, false, true, true, false, false, false, true, true, false];
        let bytes = pack_bits(&bits);
        assert_eq!(bytes.len(), 2);
        assert_eq!(bytes[0], 0b1011_0001);
        assert_eq!(unpack_bits(&bytes, 10), bits);
    }

    #[test]
    fn packed_bits_match_bool_strings() {
        let bits: Vec<bool> = (0..150).map(|i| (i * 7 + i / 5) % 3 == 0).collect();
        let packed = PackedBits::from_bools(&bits);
        assert_eq!(packed.len(), 150);
        assert_eq!(packed.to_bools(), bits);
        // MSB-first bytes append the bits `unpack_bits` reads, onto any
        // length, padding ignored.
        for (start, count) in [(0usize, 150usize), (3, 17), (64, 64), (149, 1), (10, 0)] {
            let mut back = PackedBits::from_bools(&bits[..start]);
            back.extend_from_msb_bytes(&pack_bits(&bits[start..start + count]), count);
            assert_eq!(back.to_bools(), &bits[..start + count], "{start}+{count}");
        }
        let flipped: Vec<bool> = bits.iter().enumerate().map(|(i, &b)| b ^ (i % 13 == 0)).collect();
        assert_eq!(
            packed.hamming_distance(&PackedBits::from_bools(&flipped)),
            hamming_distance(&bits, &flipped)
        );
    }

    #[test]
    fn pack_empty() {
        assert!(pack_bits(&[]).is_empty());
        assert!(unpack_bits(&[], 0).is_empty());
    }

    #[test]
    fn hamming_and_rate() {
        let a = vec![true, true, false, false];
        let b = vec![true, false, false, true];
        assert_eq!(hamming_distance(&a, &b), 2);
        assert_eq!(mismatch_rate(&a, &b), 0.5);
    }

    #[test]
    fn interleave_roundtrip() {
        let bits: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let inter = interleave(&bits, 3, 40);
        assert_eq!(inter.len(), 120);
        assert_eq!(deinterleave(&inter, 3, 40, 100), bits);
    }

    #[test]
    fn interleave_spreads_bursts() {
        // A burst of 6 consecutive set bits lands at most ⌈6/3⌉ = 2 per
        // block after interleaving over 3 blocks.
        let mut bits = vec![false; 90];
        for b in bits.iter_mut().skip(30).take(6) {
            *b = true;
        }
        let inter = interleave(&bits, 3, 30);
        for blk in 0..3 {
            let count = inter[blk * 30..(blk + 1) * 30].iter().filter(|&&b| b).count();
            assert!(count <= 2, "block {blk} got {count} burst bits");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hamming_length_mismatch_panics() {
        hamming_distance(&[true], &[true, false]);
    }
}
