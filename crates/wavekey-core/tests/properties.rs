//! Property-based tests for the protocol-facing core utilities.
//!
//! The frame codec's round-trip, mutation, split-point and resync
//! properties, and the journal codec's round-trip and mutation
//! properties, are seeded unit tests in `proto/frame.rs` and
//! `wavekey-store/src/record.rs`.

use rand::check::cases;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavekey_core::agreement::{run_agreement_information_layer, AgreementConfig};
use wavekey_core::bits::{
    deinterleave, hamming_distance, interleave, mismatch_rate, pack_bits, unpack_bits, PackedBits,
    BLOCK_BITS,
};
use wavekey_core::channel::MessageKind;
use wavekey_core::proto::frame::{Decoder, FrameError, HEADER_LEN, MAGIC, WIRE_VERSION};
use wavekey_core::store::journal::replay;
use wavekey_core::store::record::encode_record;
use wavekey_core::Frame;

fn random_bytes(rng: &mut StdRng, lens: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| rng.gen()).collect()
}

fn random_bits(rng: &mut StdRng, lens: std::ops::Range<usize>) -> Vec<bool> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| rng.gen()).collect()
}

fn any_kind(rng: &mut StdRng) -> MessageKind {
    MessageKind::ALL[rng.gen_range(0..MessageKind::ALL.len())]
}

#[test]
fn frame_decode_rejects_every_truncation() {
    cases("frame_decode_rejects_every_truncation", 256, |rng| {
        let bytes = Frame::new(any_kind(rng), random_bytes(rng, 0..256)).encode();
        let cut = rng.gen_range(0..bytes.len());
        assert_eq!(Frame::decode(&bytes[..cut]), Err(FrameError::Truncated));
    });
}

#[test]
fn frame_decode_rejects_trailing_garbage() {
    cases("frame_decode_rejects_trailing_garbage", 256, |rng| {
        let mut bytes = Frame::new(any_kind(rng), random_bytes(rng, 0..128)).encode();
        let junk = random_bytes(rng, 1..64);
        let declared = bytes.len() - HEADER_LEN;
        bytes.extend_from_slice(&junk);
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::LengthMismatch {
                declared,
                actual: declared + junk.len()
            })
        );
    });
}

#[test]
fn frame_decode_never_panics_on_arbitrary_bytes() {
    // Total decoding: any byte string yields Ok or a typed error. A
    // successful decode must re-encode to the exact input.
    cases("frame_decode_never_panics_on_arbitrary_bytes", 256, |rng| {
        let bytes = random_bytes(rng, 0..512);
        if let Ok(frame) = Frame::decode(&bytes) {
            assert_eq!(frame.encode(), bytes);
        }
    });
}

#[test]
fn frame_decode_rejects_foreign_headers() {
    cases("frame_decode_rejects_foreign_headers", 256, |rng| {
        let good = Frame::new(any_kind(rng), random_bytes(rng, 0..64)).encode();
        let (version, magic0): (u8, u8) = (rng.gen(), rng.gen());
        // Any non-WIRE_VERSION version byte is refused...
        let mut reversioned = good.clone();
        reversioned[2] = version;
        if version != WIRE_VERSION {
            assert_eq!(
                Frame::decode(&reversioned),
                Err(FrameError::UnknownVersion(version))
            );
        }
        // ...and any non-magic leading byte never decodes.
        let mut remagicked = good;
        remagicked[0] = magic0;
        if magic0 != MAGIC[0] {
            assert_eq!(Frame::decode(&remagicked), Err(FrameError::BadMagic));
        }
    });
}

#[test]
fn decoder_never_panics_on_arbitrary_streams() {
    // Totality under arbitrary bytes and arbitrary chunking; any Ok frame
    // must re-encode to a decodable image of itself.
    cases("decoder_never_panics_on_arbitrary_streams", 256, |rng| {
        let stream = random_bytes(rng, 0..768);
        let mut dec = Decoder::new();
        let mut at = 0;
        while at < stream.len() {
            let take = rng.gen_range(1..=stream.len() - at);
            dec.push(&stream[at..at + take]);
            at += take;
            while let Some(item) = dec.next_frame() {
                if let Ok(frame) = item {
                    assert_eq!(frame.version, WIRE_VERSION);
                    assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
                }
            }
        }
        assert!(dec.buffered() <= stream.len());
    });
}

#[test]
fn bits_pack_unpack_roundtrip() {
    cases("bits_pack_unpack_roundtrip", 256, |rng| {
        let bits = random_bits(rng, 0..200);
        assert_eq!(unpack_bits(&pack_bits(&bits), bits.len()), bits);
    });
}

#[test]
fn interleave_roundtrip() {
    cases("interleave_roundtrip", 256, |rng| {
        let blocks = rng.gen_range(1usize..6);
        let bits = random_bits(rng, 1..blocks * BLOCK_BITS + 1);
        let inter = interleave(&PackedBits::from_bools(&bits), blocks);
        assert_eq!(inter.len(), blocks);
        // Bit p at offset p / blocks of block p mod blocks; the rest zero.
        let ones: u32 = inter.iter().map(|block| block.count_ones()).sum();
        assert_eq!(ones as usize, bits.iter().filter(|&&b| b).count());
        for (p, &b) in bits.iter().enumerate() {
            assert_eq!(inter[p % blocks] >> (p / blocks) & 1 == 1, b, "bit {p}");
        }
        assert_eq!(deinterleave(&inter, bits.len()).to_bools(), bits);
    });
}

#[test]
fn interleave_spreads_bursts() {
    // A contiguous burst lands with at most ⌈burst/blocks⌉ bits in any
    // single block.
    let blocks = 3usize;
    for burst_len in 1usize..12 {
        for start in 0..=300 - burst_len {
            let mut bits = vec![false; 300];
            bits[start..start + burst_len].fill(true);
            let inter = interleave(&PackedBits::from_bools(&bits), blocks);
            let cap = burst_len.div_ceil(blocks) as u32;
            for block in &inter {
                let count = block.count_ones();
                assert!(count <= cap, "burst {start}+{burst_len}: {count} > {cap}");
            }
        }
    }
}

#[test]
fn hamming_is_a_metric() {
    // Symmetry, identity, triangle inequality against a third string.
    cases("hamming_is_a_metric", 256, |rng| {
        let a = random_bits(rng, 1..64);
        let b: Vec<bool> = a.iter().map(|_| rng.gen()).collect();
        let c: Vec<bool> = a.iter().map(|_| rng.gen()).collect();
        assert_eq!(hamming_distance(&a, &a), 0);
        assert_eq!(hamming_distance(&a, &b), hamming_distance(&b, &a));
        assert!(hamming_distance(&a, &c) <= hamming_distance(&a, &b) + hamming_distance(&b, &c));
        assert!(mismatch_rate(&a, &b) <= 1.0);
    });
}

#[test]
fn identical_seeds_always_agree() {
    let config = AgreementConfig {
        use_tiny_group: true,
        tau: 10.0,
        ..Default::default()
    };
    cases("identical_seeds_always_agree", 256, |rng| {
        let seed_bits = random_bits(rng, 24..64);
        let rng_seed: u64 = rng.gen();
        let mut rm = StdRng::seed_from_u64(rng_seed);
        let mut rs = StdRng::seed_from_u64(rng_seed.wrapping_add(1));
        let out =
            run_agreement_information_layer(&seed_bits, &seed_bits, &config, &mut rm, &mut rs)
                .expect("identical seeds agree");
        assert_eq!(out.key_bits.len(), 256);
        assert_eq!(out.preliminary_mismatch_bits, 0);
    });
}

#[test]
fn wildly_different_seeds_never_agree() {
    let config = AgreementConfig {
        use_tiny_group: true,
        tau: 10.0,
        ..Default::default()
    };
    cases("wildly_different_seeds_never_agree", 256, |rng| {
        let s_m = random_bits(rng, 32..64);
        let s_r: Vec<bool> = s_m.iter().map(|b| !b).collect();
        let mut rs = StdRng::seed_from_u64(rng.gen());
        let out = run_agreement_information_layer(&s_m, &s_r, &config, rng, &mut rs);
        assert!(out.is_err());
    });
}

#[test]
fn journal_replay_is_total_on_arbitrary_bytes() {
    // The clean prefix of any byte soup re-encodes to exactly the
    // consumed bytes — the property the recovery soak's byte-wise journal
    // comparisons rest on.
    cases("journal_replay_is_total_on_arbitrary_bytes", 256, |rng| {
        let bytes = random_bytes(rng, 0..2048);
        let rep = replay(&bytes);
        let reenc: Vec<u8> = rep
            .records
            .iter()
            .flat_map(|r| encode_record(r.seq, &r.body))
            .collect();
        assert_eq!(reenc.as_slice(), &bytes[..rep.consumed]);
    });
}
