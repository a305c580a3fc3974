//! Cross-crate integration: the simulated substrates compose correctly
//! (gesture → sensors → pipelines → tensors; crypto layers interlock).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavekey::core::bits::{deinterleave, interleave, pack_blocks, unpack_blocks, PackedBits};
use wavekey::crypto::ecc::{Bch, CodeOffset};
use wavekey::crypto::group::Group;
use wavekey::crypto::ot::{OtPairs, OtReceiver, OtSender};
use wavekey::imu::gesture::{GestureConfig, GestureGenerator, VolunteerId};
use wavekey::imu::pipeline::{process_imu, ImuPipelineConfig};
use wavekey::imu::sensors::{sample_imu, DeviceModel};
use wavekey::math::Vec3;
use wavekey::rfid::channel::TagModel;
use wavekey::rfid::environment::{Environment, UserPlacement};
use wavekey::rfid::pipeline::{process_rfid, RfidPipelineConfig};
use wavekey::rfid::reader::{record_rfid, ReaderSpec};

#[test]
fn one_gesture_feeds_both_pipelines_consistently() {
    let env = Environment::room(2);
    let placement = UserPlacement { distance: 3.0, azimuth_deg: 20.0 };
    let hand = placement.hand_position(&env);
    let dir = env.antenna - hand;
    let gesture = GestureGenerator::new(VolunteerId(3), 11)
        .generate(&GestureConfig::default())
        .rotated_yaw(dir.y.atan2(dir.x));

    let imu_rec = sample_imu(&gesture, &DeviceModel::Pixel8.spec(), 12);
    let a = process_imu(&imu_rec, &ImuPipelineConfig::default()).expect("imu side");
    assert_eq!(a.len(), 200);

    let channel = env.channel(TagModel::DogBoneA, 0, 12);
    let rfid_rec = record_rfid(
        &gesture,
        hand,
        Vec3::new(0.03, 0.0, 0.0),
        &channel,
        &ReaderSpec::default(),
        12,
    );
    let r = process_rfid(&rfid_rec, &RfidPipelineConfig::default()).expect("rfid side");
    assert_eq!(r.len(), 400);

    // The two independently detected onsets agree to within ~0.2 s.
    assert!(
        (a.start_time - r.start_time).abs() < 0.2,
        "onsets diverge: imu {} rfid {}",
        a.start_time,
        r.start_time
    );

    // Tensor conversions accept the processed outputs.
    let at = wavekey::core::model::imu_to_tensor(&a);
    let rt = wavekey::core::model::rfid_to_tensor(&r);
    assert_eq!(at.shape(), &[1, 3, 200]);
    assert_eq!(rt.shape(), &[1, 3, 400]);
}

#[test]
fn ot_transports_bch_codewords_exactly() {
    // The protocol's composition: random BCH codewords through the OT,
    // decoded and error-corrected on the far side.
    let group = Group::Ristretto255;
    let bch = Bch::new(3).unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let msg = (0..bch.k()).fold(0u128, |m, i| m | u128::from(rng.gen::<bool>()) << i);
    let codeword = bch.encode(msg).unwrap();
    let mut payload = Vec::new();
    pack_blocks(&[codeword], &mut payload);

    let mut rng_s = StdRng::seed_from_u64(22);
    let mut rng_r = StdRng::seed_from_u64(23);
    let (sender, ma) = OtSender::start(
        group,
        OtPairs::from_pairs(&[(payload.clone(), vec![0u8; payload.len()])]),
        &mut rng_s,
    );
    let (receiver, mb) = OtReceiver::respond(group, &[false], &ma, &mut rng_r).unwrap();
    let me = sender.encrypt(group, &mb).unwrap();
    let received = receiver.decrypt(group, &me).unwrap();
    let block = unpack_blocks(&received, 1)[0];

    // Flip two bits in transit-equivalent corruption; BCH repairs them.
    let noisy = block ^ 1 << 5 ^ 1 << 80;
    let decoded = bch.decode(noisy).unwrap();
    assert_eq!(decoded, codeword);
    // Systematic: the message sits at positions n−k..n.
    assert_eq!(decoded >> (bch.n() - bch.k()), msg);
}

#[test]
fn code_offset_reconciles_realistic_seed_noise() {
    // Emulate the protocol's key-noise structure: segments of 6
    // consecutive bits corrupted (a wrong OT selection), then interleaved
    // reconciliation.
    let co = CodeOffset::new(Bch::new(5).unwrap());
    let mut rng = StdRng::seed_from_u64(31);
    let k_len: usize = 288;
    let key: Vec<bool> = (0..k_len).map(|_| rng.gen()).collect();

    let blocks = k_len.div_ceil(127);
    let inter = interleave(&PackedBits::from_bools(&key), blocks);
    let helper = co.commit(&inter, &mut rng);

    // Two bad segments with ~half their bits flipped.
    let mut noisy = key.clone();
    for seg_start in [36usize, 180] {
        for j in 0..6 {
            if rng.gen::<bool>() {
                noisy[seg_start + j] = !noisy[seg_start + j];
            }
        }
    }
    let noisy_inter = interleave(&PackedBits::from_bools(&noisy), blocks);
    let recovered = co.reconcile(&noisy_inter, &helper).expect("within correction radius");
    assert_eq!(deinterleave(&recovered, k_len).to_bools(), key);
}

#[test]
fn environments_and_tags_compose() {
    // Every environment × tag builds a working channel and yields a
    // processable recording.
    let gesture = GestureGenerator::new(VolunteerId(0), 41).generate(&GestureConfig::default());
    for env_id in 1..=4u32 {
        let env = Environment::room(env_id);
        let hand = UserPlacement::default().hand_position(&env);
        for tag in TagModel::ALL {
            let channel = env.channel(tag, 2, 42);
            let rec = record_rfid(
                &gesture,
                hand,
                Vec3::ZERO,
                &channel,
                &ReaderSpec::default(),
                43,
            );
            assert!(rec.len() > 500, "env {env_id} tag {tag:?}");
        }
    }
}
