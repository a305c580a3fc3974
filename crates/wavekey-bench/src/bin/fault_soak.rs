//! Chaos soak: many concurrent gateway sessions under the reference
//! [`FaultPlan`] mixture on the [`SimNet`], with and without the
//! recovery layer, plus a fault-free differential control. Writes
//! `results/BENCH_faults.json` (consumed by the ci.sh fault-soak gate).
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin fault_soak [out_path]
//! ```
//!
//! Three arms, all fully deterministic in the baked-in seeds:
//!
//! 1. **no recovery** — the reference fault mixture with retries
//!    disabled. Most sessions die: the gate requires `< 50%` survival,
//!    demonstrating the mixture actually bites.
//! 2. **recovered** — the same mixture with [`RetryPolicy::arq`]:
//!    retransmission, NAK/re-send, duplicate suppression, and reorder
//!    deferral must lift survival to `>= WAVEKEY_FAULT_SOAK_MIN`
//!    (default 0.90). Every surviving session must hold *matching*
//!    mobile/server keys — `divergent_key_successes` must be 0.
//! 3. **fault-free control** — retries enabled but a passive channel:
//!    every key must be bit-identical to the lockstep `run_agreement`
//!    driver with mirrored seeds and RNGs (the server's from
//!    `server_rng`), with 0 retransmits, proving the recovery layer is
//!    inert without faults.
//!
//! A sensing-layer section additionally pushes the reference IMU/RFID
//! fault mixtures through both processing pipelines to confirm the
//! front-end absorbs them without panicking.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wavekey_bench::fleet::{run_fleet, Fleet};
use wavekey_bench::traffic::soak_config;
use wavekey_core::agreement::{run_agreement, RetryPolicy};
use wavekey_core::channel::PassiveChannel;
use wavekey_core::fault::{FaultPlan, FaultProfile};
use wavekey_core::MobileAgreement;
use wavekey_gateway::{server_rng, Gateway, GatewayConfig, SimNet, StreamFaults};
use wavekey_obs::Obs;
use wavekey_imu::gesture::{GestureConfig, GestureGenerator, VolunteerId};
use wavekey_imu::pipeline::{process_imu, ImuPipelineConfig};
use wavekey_imu::sensors::{sample_imu, DeviceModel};
use wavekey_imu::{inject_imu_faults, ImuFaultConfig};
use wavekey_rfid::channel::TagModel;
use wavekey_rfid::environment::{Environment, UserPlacement};
use wavekey_rfid::pipeline::{process_rfid, RfidPipelineConfig};
use wavekey_rfid::reader::{record_rfid, ReaderSpec};
use wavekey_rfid::{inject_rfid_faults, RfidFaultConfig};
use wavekey_math::Vec3;

const SESSIONS: u64 = 96;
const SEED_LEN: usize = 24;
const FAULT_SEED: u64 = 0xFA_117;

// One gesture-channel bit error per seed pair: inside the BCH budget,
// so every session agrees when the wire cooperates.
fn seed_pair(base: u64) -> (Vec<bool>, Vec<bool>) {
    wavekey_bench::traffic::seed_pair(0xC0DE, base, SEED_LEN)
}

fn mobile_rng(i: u64) -> StdRng {
    StdRng::seed_from_u64(0xA11CE + i)
}

fn config(retry: RetryPolicy) -> GatewayConfig {
    GatewayConfig::new(soak_config(retry))
}

/// Runs the soak batch through one gateway over `net`; session `i` is
/// conn id `i + 1`.
fn run_arm(config: &GatewayConfig, net: &SimNet) -> (Fleet, Gateway) {
    let gateway = Gateway::new(config.clone(), Obs::disabled(), |conn_id| seed_pair(conn_id - 1).1);
    let mobile = |conn_id: u64| {
        let (s_m, _) = seed_pair(conn_id - 1);
        MobileAgreement::new(&s_m, &config.agreement, mobile_rng(conn_id - 1)).expect("mobile")
    };
    let fleet = run_fleet(&gateway, config, net, SESSIONS, mobile, |_| StreamFaults::none());
    (fleet, gateway)
}

/// Sensing-layer soak: reference IMU/RFID fault mixtures through both
/// pipelines. Returns how many of `n` seeds processed cleanly end to end.
fn sensing_soak(n: u64) -> u64 {
    let mut ok = 0;
    for seed in 0..n {
        let mut generator = GestureGenerator::new(VolunteerId((seed % 6) as u32), 0x5E_A5 + seed);
        let gesture = generator.generate(&GestureConfig::default());

        let imu = sample_imu(&gesture, &DeviceModel::GalaxyWatch.spec(), seed);
        let imu = inject_imu_faults(&imu, &ImuFaultConfig::reference(), seed);
        let imu_ok = process_imu(&imu, &ImuPipelineConfig::default()).is_ok();

        let env = Environment::room(1);
        let channel = env.channel(TagModel::Alien9640A, 0, seed);
        let hand = UserPlacement::default().hand_position(&env);
        let rfid = record_rfid(
            &gesture,
            hand,
            Vec3::new(0.03, 0.0, 0.0),
            &channel,
            &ReaderSpec::default(),
            seed,
        );
        let rfid = inject_rfid_faults(&rfid, &RfidFaultConfig::reference(), seed);
        let rfid_ok = process_rfid(&rfid, &RfidPipelineConfig::default()).is_ok();

        ok += (imu_ok && rfid_ok) as u64;
    }
    ok
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_faults.json".to_string());

    let faulted =
        || SimNet::with_adversary(1 << 16, FaultPlan::new(FAULT_SEED, FaultProfile::reference()));

    // Arm 1: reference faults, no recovery.
    let (bare, bare_gateway) = run_arm(&config(RetryPolicy::none()), &faulted());
    let bare_success = bare.successes();
    let rate_bare = bare_success as f64 / SESSIONS as f64;
    let divergent_bare = bare.divergent(&bare_gateway);

    // Arm 2: the same fault mixture, recovery on.
    let net = faulted();
    let (recovered, rec_gateway) = run_arm(&config(RetryPolicy::arq()), &net);
    let rec_success = recovered.successes();
    let rate_rec = rec_success as f64 / SESSIONS as f64;
    let divergent_rec = recovered.divergent(&rec_gateway);
    let retransmits = net.retransmits();

    // Arm 3: fault-free control — retries enabled, passive channel,
    // differential against the lockstep driver.
    let net = SimNet::new(1 << 16);
    let control_config = config(RetryPolicy::arq());
    let (control, control_gateway) = run_arm(&control_config, &net);
    let mut bit_identical = control.successes() == SESSIONS
        && control.divergent(&control_gateway) == 0
        && net.retransmits() == 0;
    for (conn_id, _, got) in &control.sessions {
        let (s_m, s_r) = seed_pair(conn_id - 1);
        let mut rng_m = mobile_rng(conn_id - 1);
        let mut rng_r = server_rng(control_config.server_seed, *conn_id);
        let reference = run_agreement(
            &s_m,
            &s_r,
            &control_config.agreement,
            &mut rng_m,
            &mut rng_r,
            &mut PassiveChannel,
        )
        .expect("fault-free lockstep agreement succeeds");
        bit_identical &= got.as_ref().is_ok_and(|key| *key == reference.key);
    }

    let divergent_total = divergent_bare + divergent_rec;
    let sensing_ok = sensing_soak(16);

    println!("sessions                   {SESSIONS}");
    println!("no recovery                {bare_success}/{SESSIONS}  ({rate_bare:.3})");
    println!("recovered                  {rec_success}/{SESSIONS}  ({rate_rec:.3})");
    println!("retransmits (recovered)    {retransmits}");
    println!("divergent-key successes    {divergent_total}");
    println!("fault-free bit-identical   {bit_identical}");
    println!("sensing pipelines ok       {sensing_ok}/16");

    let json = format!(
        "{{\n  \"sessions\": {SESSIONS},\n  \
         \"success_rate_no_recovery\": {rate_bare:.4},\n  \
         \"success_rate_recovered\": {rate_rec:.4},\n  \
         \"retransmits_total\": {retransmits},\n  \
         \"divergent_key_successes\": {divergent_total},\n  \
         \"fault_free_keys_bit_identical\": {bit_identical},\n  \
         \"sensing_pipelines_ok\": {sensing_ok},\n  \
         \"sensing_pipelines_run\": 16\n}}\n"
    );
    wavekey_bench::write_results(&out_path, &json);
}
