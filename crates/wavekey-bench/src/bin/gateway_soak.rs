//! Gateway soak: a 100k-session concurrent fleet through the async
//! `wavekey-gateway` event loop, with lockstep-equivalence, fault, and
//! memory gates. Writes `results/BENCH_gateway.json` and exits non-zero
//! when a check fails.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin gateway_soak [out_path]
//! ```
//!
//! Four deterministic arms over the tiny test group (the gateway and
//! framing path, not group arithmetic, is under test):
//!
//! 1. **soak** — `WAVEKEY_GATEWAY_SESSIONS` (default 100,000) fault-free
//!    sessions, all connected before the executor starts, so every
//!    session is in flight at once: `peak_in_flight` must reach the
//!    fleet size, every session must complete with matching
//!    mobile/gateway keys, and peak RSS (`VmHWM`) must stay under
//!    [`MAX_RSS_MB`] (820: the fleet measures 650 MiB at 100k, ≈6.7 KiB
//!    per in-flight session). A counting allocator reports the arm's
//!    peak live heap and live allocations per in-flight session beside
//!    `VmHWM`.
//! 2. **lockstep mirror** — an evenly-strided subsample (~256 sessions)
//!    of the soak arm is re-run through `drive_lockstep` with mirrored
//!    seeds and RNG streams; keys must be bit-identical, proving byte
//!    chunking and interleaving never reach the machines.
//! 3. **lossless faults** — a 512-session fleet under split-read and
//!    stalled-write injection: every key must equal the fault-free run's.
//! 4. **lossy faults** — the same fleet plus truncate-and-close: evicted
//!    sessions are expected, but no surviving session may hold divergent
//!    keys.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wavekey_bench::count_alloc::{self, Counting};
use wavekey_bench::fleet::{run_fleet, Fleet};
use wavekey_bench::gate::{self, Check};
use wavekey_bench::traffic::seed_pair;
use wavekey_core::agreement::AgreementConfig;
use wavekey_core::proto::{driver, MobileAgreement};
use wavekey_core::PassiveChannel;
use wavekey_gateway::{server_rng, Gateway, GatewayConfig, SimNet, StreamFaults};
use wavekey_obs::{EventScope, Json, Obs};

/// The peak-RSS ceiling of the soak arm, in MiB: the 100k fleet
/// measured 650.2 MiB `VmHWM` (about 6.7 KiB per in-flight session, of
/// which 6.4 KB is live heap in 20 blocks) on a 2-vCPU Intel Xeon host,
/// and 820 leaves it a 26 % margin.
const MAX_RSS_MB: f64 = 820.0;
/// Sessions in each of the lossless and lossy fault arms.
const FAULT_SESSIONS: u64 = 512;

/// Reports the soak arm's peak live heap per in-flight session.
#[global_allocator]
static ALLOC: Counting = Counting;

const SEED_BASE: u64 = 0x6A7E_0000;
const MOBILE_RNG_BASE: u64 = 0x6A7E_0B11;
const SEED_LEN: usize = 24;

fn soak_agreement() -> AgreementConfig {
    AgreementConfig { use_tiny_group: true, tau: 10.0, bch_t: 5, ..Default::default() }
}

fn mobile_rng(conn_id: u64) -> StdRng {
    StdRng::seed_from_u64(MOBILE_RNG_BASE + conn_id)
}

/// Runs `n` fault-free-seeded sessions through one gateway, with
/// `faults(i)` on the `i`-th connection.
fn run_arm(n: u64, faults: impl Fn(u64) -> StreamFaults) -> (Fleet, Gateway) {
    let config = GatewayConfig::new(soak_agreement());
    let gateway = Gateway::new(config.clone(), Obs::disabled(), |conn_id| {
        seed_pair(SEED_BASE, conn_id, SEED_LEN).1
    });
    let mobile = |conn_id| {
        let (s_m, _) = seed_pair(SEED_BASE, conn_id, SEED_LEN);
        MobileAgreement::new(&s_m, &config.agreement, mobile_rng(conn_id)).expect("mobile machine")
    };
    let fleet = run_fleet(&gateway, &config, &SimNet::new(1 << 16), n, mobile, faults);
    (fleet, gateway)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Re-runs an evenly-strided subsample of the soak fleet through the
/// lockstep driver with mirrored seeds/RNGs; returns
/// `(checked, all bit-identical)`.
fn lockstep_mirror(soak: &Fleet, server_seed: u64) -> (u64, bool) {
    let n = soak.sessions.len() as u64;
    let stride = (n / 256).max(1);
    let config = soak_agreement();
    let mut checked = 0u64;
    let mut identical = true;
    for (conn_id, _, got) in soak.sessions.iter().filter(|(id, _, _)| (id - 1) % stride == 0) {
        let Ok(gateway_key) = got else {
            identical = false;
            continue;
        };
        let (s_m, s_r) = seed_pair(SEED_BASE, *conn_id, SEED_LEN);
        let mut rng_m = mobile_rng(*conn_id);
        let mut rng_r = server_rng(server_seed, *conn_id);
        let (outcome, _) = driver::drive_lockstep(
            &s_m,
            &s_r,
            &config,
            &mut rng_m,
            &mut rng_r,
            &mut PassiveChannel,
            &EventScope::disabled(),
        );
        identical &= matches!(&outcome, Ok(out) if out.key == *gateway_key);
        checked += 1;
    }
    (checked, identical && checked > 0)
}

/// The soak arm's peak RSS is read (0 means `VmHWM` was unreadable) and
/// under the ceiling.
fn rss_within_ceiling(mb: f64) -> bool {
    mb > 0.0 && mb <= MAX_RSS_MB
}

/// The gate: every session completes, all are in flight at once, no key
/// diverges in the soak or lossy arm, peak RSS stays under the ceiling,
/// the lockstep mirror is bit-identical, and lossless faults change no
/// key.
fn checks(
    sessions: u64,
    completed: u64,
    peak_in_flight: u64,
    divergent: u64,
    rss_mb: f64,
    lockstep_identical: bool,
    lossless_identical: bool,
) -> Vec<Check> {
    vec![
        Check::zero("sessions not completed", sessions.saturating_sub(completed)),
        Check::zero("peak in flight short of the fleet", sessions.saturating_sub(peak_in_flight)),
        Check::zero("divergent keys, soak and lossy arms", divergent),
        Check::new(
            "peak RSS (MiB)",
            rss_within_ceiling(rss_mb),
            format!("{rss_mb:.1} (above 0, at most {MAX_RSS_MB})"),
        ),
        Check::holds("lockstep mirror bit-identical", lockstep_identical),
        Check::holds("lossless fault keys identical", lossless_identical),
    ]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_gateway.json".to_string());
    let sessions = std::env::var("WAVEKEY_GATEWAY_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let server_seed = GatewayConfig::new(soak_agreement()).server_seed;

    eprintln!("[gateway_soak] soak arm: {sessions} concurrent fault-free sessions…");
    let ((soak, soak_gateway), heap_bytes, heap_blocks) =
        count_alloc::peak_of(|| run_arm(sessions, |_| StreamFaults::none()));
    let heap_per_session = heap_bytes as f64 / sessions.max(1) as f64;
    let blocks_per_session = heap_blocks as f64 / sessions.max(1) as f64;
    let table = soak_gateway.table();
    let soak_divergent = soak.divergent(&soak_gateway);
    let sps = if soak.wall_s > 0.0 { sessions as f64 / soak.wall_s } else { 0.0 };
    let rss_mb = peak_rss_mb();

    eprintln!("[gateway_soak] lockstep mirror (stride over the soak fleet)…");
    let (lockstep_checked, lockstep_identical) = lockstep_mirror(&soak, server_seed);

    eprintln!("[gateway_soak] lossless-fault arm: {FAULT_SESSIONS} sessions…");
    let (lossless, _) = run_arm(FAULT_SESSIONS, |i| StreamFaults::lossless(0xFA_57 + i));
    // Same conn ids, same seeds: splits and stalls must not change keys.
    let lossless_identical = lossless.sessions.len() == FAULT_SESSIONS as usize
        && lossless.sessions.iter().zip(soak.sessions.iter()).all(|((id_a, _, a), (id_b, _, b))| {
            id_a == id_b && a.as_ref().ok() == b.as_ref().ok()
        });

    eprintln!("[gateway_soak] lossy-fault arm: {FAULT_SESSIONS} sessions…");
    let (lossy, lossy_gateway) = run_arm(FAULT_SESSIONS, |i| StreamFaults::lossy(0x10_55 + i));
    let lossy_divergent = lossy.divergent(&lossy_gateway);
    let lossy_table = lossy_gateway.table();

    let checks = checks(
        sessions,
        table.completed(),
        table.peak_live(),
        soak_divergent + lossy_divergent,
        rss_mb,
        lockstep_identical,
        lossless_identical,
    );
    let soak_pass = checks.iter().all(|c| c.pass);

    println!("sessions                {sessions}");
    println!(
        "completed               {} (evicted {}, failed {})",
        table.completed(),
        table.evicted(),
        table.failed()
    );
    println!("wall                    {:.2} s  ({sps:.0} sessions/s)", soak.wall_s);
    println!(
        "peak live heap          {heap_per_session:.0} B in {blocks_per_session:.1} blocks \
         per in-flight session"
    );
    println!("lockstep mirror         {lockstep_checked} sessions checked");
    println!(
        "lossy faults            {} completed, {} evicted",
        lossy_table.completed(),
        lossy_table.evicted()
    );

    let json = Json::obj(vec![
        ("sessions", Json::Num(sessions as f64)),
        ("completed", Json::Num(table.completed() as f64)),
        ("evicted", Json::Num(table.evicted() as f64)),
        ("failed", Json::Num(table.failed() as f64)),
        ("peak_in_flight", Json::Num(table.peak_live() as f64)),
        ("divergent_keys", Json::Num(soak_divergent as f64)),
        ("wall_s", Json::Num(soak.wall_s)),
        ("sessions_per_s", Json::Num(sps)),
        ("peak_rss_mb", Json::Num(rss_mb)),
        ("max_rss_mb", Json::Num(MAX_RSS_MB)),
        ("rss_pass", Json::Bool(rss_within_ceiling(rss_mb))),
        ("heap_per_session_b", Json::Num(heap_per_session.round())),
        ("heap_blocks_per_session", Json::Num((blocks_per_session * 10.0).round() / 10.0)),
        ("lockstep_checked", Json::Num(lockstep_checked as f64)),
        ("lockstep_bit_identical", Json::Bool(lockstep_identical)),
        ("lossless_sessions", Json::Num(FAULT_SESSIONS as f64)),
        ("lossless_keys_identical", Json::Bool(lossless_identical)),
        ("lossy_sessions", Json::Num(FAULT_SESSIONS as f64)),
        ("lossy_completed", Json::Num(lossy_table.completed() as f64)),
        ("lossy_evicted", Json::Num(lossy_table.evicted() as f64)),
        ("lossy_divergent", Json::Num(lossy_divergent as f64)),
        ("gateway_soak_pass", Json::Bool(soak_pass)),
    ]);
    wavekey_bench::write_results(&out_path, &format!("{}\n", json.to_string_pretty()));
    gate::enforce("gateway soak", &checks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavekey_bench::gate::failing;

    #[test]
    fn each_condition_fails_alone() {
        let rss = MAX_RSS_MB;
        assert!(failing(&checks(100, 100, 100, 0, rss, true, true)).is_empty());
        assert_eq!(failing(&checks(100, 99, 100, 0, rss, true, true)), ["sessions not completed"]);
        let in_flight = "peak in flight short of the fleet";
        assert_eq!(failing(&checks(100, 100, 99, 0, rss, true, true)), [in_flight]);
        let divergent = "divergent keys, soak and lossy arms";
        assert_eq!(failing(&checks(100, 100, 100, 1, rss, true, true)), [divergent]);
        assert_eq!(failing(&checks(100, 100, 100, 0, rss + 0.1, true, true)), ["peak RSS (MiB)"]);
        assert_eq!(failing(&checks(100, 100, 100, 0, 0.0, true, true)), ["peak RSS (MiB)"]);
        let lockstep = "lockstep mirror bit-identical";
        assert_eq!(failing(&checks(100, 100, 100, 0, rss, false, true)), [lockstep]);
        let lossless = "lossless fault keys identical";
        assert_eq!(failing(&checks(100, 100, 100, 0, rss, true, false)), [lossless]);
    }
}
