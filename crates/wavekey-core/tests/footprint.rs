//! Heap footprint of one agreement's machine pair, stage by stage.
//!
//! A counting global allocator (the one `gateway_soak` reports with)
//! tracks live bytes and live blocks. A tiny-group pair (24-bit seeds,
//! the gateway's sessions) and a ristretto255 pair (48-bit seeds, the
//! kiosk's) are driven in lockstep through built → A → B → E → Done. At
//! each stage the test holds the two machines plus the frames still in
//! flight to the peer, and asserts what that costs against a ceiling per
//! stage. The machines themselves sit on the stack here, so the figures
//! are what they own on the heap. The ceilings sit a little above what
//! the flat machines hold: a machine that keeps a spent OT batch, a byte
//! per bit or a `Vec` per group element breaks them.
//!
//! The whole file is one `#[test]`, so no other test allocates while it
//! measures, and it pins `WAVEKEY_THREADS=1` before any group arithmetic
//! runs, so no worker thread allocates either.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavekey_core::agreement::AgreementConfig;
use wavekey_core::proto::{Frame, MobileAgreement, ServerAgreement, State};

#[allow(dead_code)] // this test reads only the live counters
#[path = "../../wavekey-bench/src/count_alloc.rs"]
mod count_alloc;

#[global_allocator]
static ALLOC: count_alloc::Counting = count_alloc::Counting;

/// One stage's measurement and its ceiling.
struct Stage {
    name: &'static str,
    bytes: isize,
    blocks: isize,
}

/// Drives one pair through the stages; every frame is delivered at the
/// gesture window's end, well inside τ.
fn stages(config: &AgreementConfig, seed_len: usize, salt: u64) -> Vec<Stage> {
    let mut rng = StdRng::seed_from_u64(salt);
    let s_m: Vec<bool> = (0..seed_len).map(|_| rng.gen()).collect();
    let mut s_r = s_m.clone();
    s_r[0] = !s_r[0];
    let (rng_m, rng_s) = (StdRng::seed_from_u64(salt + 1), StdRng::seed_from_u64(salt + 2));
    let at = config.gesture_window;
    let only = |mut frames: Vec<Frame>| frames.pop().expect("one reply");
    let mut out = Vec::new();
    let base = count_alloc::live();
    let mark = |name, out: &mut Vec<Stage>| {
        let (bytes, blocks) = count_alloc::live();
        out.push(Stage { name, bytes: bytes - base.0, blocks: blocks - base.1 });
    };

    let mut mobile = MobileAgreement::new(&s_m, config, rng_m).expect("mobile");
    let mut server = ServerAgreement::new(&s_r, config, rng_s).expect("server");
    mark("built", &mut out);
    let ma_m = mobile.start().expect("M_A,M");
    let ma_r = server.start().expect("M_A,R");
    mark("A", &mut out);
    let mb_m = only(mobile.handle(&ma_r, at).expect("M_B,M"));
    let mb_r = only(server.handle(&ma_m, at).expect("M_B,R"));
    drop((ma_m, ma_r));
    mark("B", &mut out);
    let me_r = only(server.handle(&mb_m, at).expect("M_E,R"));
    let me_m = only(mobile.handle(&mb_r, at).expect("M_E,M"));
    drop((mb_m, mb_r));
    mark("E", &mut out);
    assert!(server.handle(&me_m, at).expect("K_R").is_empty());
    let challenge = only(mobile.handle(&me_r, at).expect("challenge"));
    let response = only(server.handle(&challenge, at).expect("response"));
    assert!(mobile.handle(&response, at).expect("confirm").is_empty());
    drop((me_m, me_r, challenge, response));
    assert_eq!((mobile.state(), server.state()), (State::Done, State::Done));
    assert_eq!(mobile.key(), server.key());
    mark("Done", &mut out);
    drop((mobile, server));
    out
}

/// Runs the pair twice, so the shared group, code and thread-locals are
/// built before the measured run, and checks every stage against its
/// `(bytes, blocks)` ceiling.
fn check(label: &str, config: &AgreementConfig, seed_len: usize, ceilings: [(isize, isize); 5]) {
    stages(config, seed_len, 7);
    let measured = stages(config, seed_len, 7);
    for (stage, (max_bytes, max_blocks)) in measured.iter().zip(ceilings) {
        eprintln!(
            "{label:<10} {:<5} {:>7} B in {:>4} blocks (ceiling {max_bytes} B, {max_blocks})",
            stage.name, stage.bytes, stage.blocks
        );
    }
    for (stage, (max_bytes, max_blocks)) in measured.iter().zip(ceilings) {
        assert!(
            stage.bytes <= max_bytes && stage.blocks <= max_blocks,
            "{label} at {}: {} B in {} blocks, ceiling {max_bytes} B in {max_blocks}",
            stage.name,
            stage.bytes,
            stage.blocks
        );
    }
}

#[test]
fn machine_pairs_stay_under_their_stage_ceilings() {
    std::env::set_var("WAVEKEY_THREADS", "1");
    let tiny = AgreementConfig { use_tiny_group: true, tau: 10.0, bch_t: 5, ..Default::default() };
    // Measured with one sender scalar per OT batch: 16 B in 2 blocks
    // built, then 272/9, 1,056/15, 1,144/13 and 208/5; a scalar and an
    // `M_A` element per instance held 1,008/9, 1,792/15, 1,512/13, and
    // the byte-per-bit, `Vec` per element machines 48/2, 7,376/251,
    // 10,496/353, 10,624/353 and 11,008/356. A machine that also keeps
    // its pairs outside the OT sender holds two blocks more at A and B.
    check("tiny", &tiny, 24, [(64, 2), (400, 11), (1_300, 17), (1_400, 15), (320, 7)]);
    // Measured on ristretto255: 16/2, 464/9, 6,880/15, 4,712/13 and
    // 208/5, where a scalar and an `M_A` element per instance held
    // 16/2, 6,480/9, 24,928/15, 19,752/13 and 208/5, and MODP-1024
    // 16/2, 24,912/9, 49,504/15, 25,896/13 and 208/5. At B each
    // receiver holds its peer's one decoded `M_A` point (160 B) beside
    // its 48 scalars; the comb of `M_A` lives only inside `decrypt`.
    let production = AgreementConfig { tau: 10.0, ..Default::default() };
    check(
        "ristretto255",
        &production,
        48,
        [(64, 2), (700, 11), (8_000, 17), (5_500, 15), (320, 7)],
    );
}
