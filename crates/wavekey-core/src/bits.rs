//! Bit-vector helpers shared by the key-agreement protocol.
//!
//! Key-seeds, OT payload sequences, and preliminary keys are all bit
//! strings; this module provides packing to bytes (MSB-first), mismatch
//! counting, and the block interleaving that spreads the clustered bit
//! errors of a wrong OT segment across ECC blocks, each block a `u128`
//! as the BCH codec takes it.

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

    /// The first `n` bits packed MSB-first: the bytes [`pack_bits`] makes
    /// of them.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the length.
    pub fn to_msb_bytes(&self, n: usize) -> Vec<u8> {
        assert!(n <= self.len, "{n} bits of {}", self.len);
        let mut out: Vec<u8> = (0..n.div_ceil(8))
            .map(|q| ((self.words[q / 8] >> (q % 8 * 8)) as u8).reverse_bits())
            .collect();
        if let Some(last) = out.last_mut() {
            *last &= 0xff << (7 - (n - 1) % 8); // clear the padding
        }
        out
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

/// Bits per block of [`interleave`]: one BCH(127) block, held in a
/// `u128` whose bit 127 stays clear.
pub const BLOCK_BITS: usize = 127;

/// Where bit `p` of an interleaved string sits, for `p = 0, 1, …`: block
/// `p mod blocks`, offset `p / blocks`.
fn slots(blocks: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..).flat_map(move |offset| (0..blocks).map(move |block| (block, offset)))
}

/// Block-interleaves `bits` into `blocks` zero-padded blocks of
/// [`BLOCK_BITS`], one `u128` each: source position `p` maps to block
/// `p mod blocks`, offset (bit) `p / blocks`.
///
/// A wrong OT segment corrupts `2·l_b` *consecutive* bits of the
/// preliminary key; interleaving spreads them evenly over the ECC blocks
/// so each block stays within its correction radius.
///
/// # Panics
///
/// Panics if `blocks` is zero or the bits do not fit.
pub fn interleave(bits: &PackedBits, blocks: usize) -> Vec<u128> {
    assert!(blocks > 0 && bits.len() <= blocks * BLOCK_BITS, "bits do not fit the interleaver");
    let mut out = vec![0u128; blocks];
    for (p, (block, offset)) in slots(blocks).take(bits.len()).enumerate() {
        out[block] |= u128::from(bits.get(p)) << offset;
    }
    out
}

/// Inverts [`interleave`], returning the first `n` original bits.
///
/// # Panics
///
/// Panics if the blocks hold fewer than `n` bits.
pub fn deinterleave(blocks: &[u128], n: usize) -> PackedBits {
    assert!(n <= blocks.len() * BLOCK_BITS, "cannot recover more bits than stored");
    let mut out = PackedBits::with_capacity(n);
    for (block, offset) in slots(blocks.len()).take(n) {
        out.push(blocks[block] >> offset & 1 == 1);
    }
    out
}

/// Appends the blocks' [`BLOCK_BITS`] bits each, block after block,
/// packed MSB-first: the bytes [`pack_bits`] makes of the concatenated
/// blocks.
pub fn pack_blocks(blocks: &[u128], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + (blocks.len() * BLOCK_BITS).div_ceil(8), 0);
    let bits = blocks.iter().flat_map(|&block| (0..BLOCK_BITS).map(move |i| block >> i & 1));
    for (p, bit) in bits.enumerate() {
        out[start + p / 8] |= (bit as u8) << (7 - p % 8);
    }
}

/// Reads `count` blocks back from the bytes [`pack_blocks`] makes,
/// ignoring the padding bits of the last byte, as [`unpack_bits`] does.
///
/// # Panics
///
/// Panics if `bytes` holds fewer than `count` blocks.
pub fn unpack_blocks(bytes: &[u8], count: usize) -> Vec<u128> {
    assert!(bytes.len() * 8 >= count * BLOCK_BITS, "not enough bytes for {count} blocks");
    let mut out = vec![0u128; count];
    for p in 0..count * BLOCK_BITS {
        let bit = bytes[p / 8] >> (7 - p % 8) & 1;
        out[p / BLOCK_BITS] |= u128::from(bit) << (p % BLOCK_BITS);
    }
    out
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
        let inter = interleave(&PackedBits::from_bools(&bits), 3);
        assert_eq!(inter.len(), 3);
        // Bit p sits at offset p / 3 of block p mod 3.
        for (p, &b) in bits.iter().enumerate() {
            assert_eq!(inter[p % 3] >> (p / 3) & 1 == 1, b, "bit {p}");
        }
        assert!(inter.iter().all(|&block| block >> 34 == 0), "zero padding");
        assert_eq!(deinterleave(&inter, 100).to_bools(), bits);
    }

    #[test]
    fn interleave_spreads_bursts() {
        // A burst of 6 consecutive set bits lands at most ⌈6/3⌉ = 2 per
        // block after interleaving over 3 blocks.
        let mut bits = vec![false; 90];
        for b in bits.iter_mut().skip(30).take(6) {
            *b = true;
        }
        let inter = interleave(&PackedBits::from_bools(&bits), 3);
        for (blk, block) in inter.iter().enumerate() {
            let count = block.count_ones();
            assert!(count <= 2, "block {blk} got {count} burst bits");
        }
    }

    #[test]
    fn blocks_pack_as_their_bits_do() {
        // Three blocks with all of bit 0, bit 126 and a pattern set: the
        // bytes are `pack_bits` of the 381 bits, and reading them back
        // ignores the last byte's padding.
        let blocks = [1u128 | 1 << 126, u128::MAX >> 1, 0x1234_5678_9abc_def0 << 40];
        let bits: Vec<bool> =
            blocks.iter().flat_map(|&b| (0..BLOCK_BITS).map(move |i| b >> i & 1 == 1)).collect();
        let mut bytes = vec![0xee];
        pack_blocks(&blocks, &mut bytes);
        assert_eq!(bytes[0], 0xee, "appends");
        assert_eq!(bytes[1..], pack_bits(&bits));
        *bytes.last_mut().unwrap() |= 0b111; // padding
        assert_eq!(unpack_blocks(&bytes[1..], 3), blocks);
    }

    #[test]
    fn msb_bytes_match_pack_bits() {
        let bits: Vec<bool> = (0..150).map(|i| (i * 5 + i / 7) % 3 == 0).collect();
        let packed = PackedBits::from_bools(&bits);
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 149, 150] {
            assert_eq!(packed.to_msb_bytes(n), pack_bits(&bits[..n]), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn hamming_length_mismatch_panics() {
        hamming_distance(&[true], &[true, false]);
    }
}
