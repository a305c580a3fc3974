//! Zipfian tenant/session load generator gated by the `wavekey-obs` SLO
//! engine. Writes `results/BENCH_load.json` and exits non-zero when a
//! check fails.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin load_gen [out_path]
//! ```
//!
//! Three deterministic traffic mixes, all driven through a [`Gateway`]
//! fleet over the tiny test group (the protocol path, not the group
//! arithmetic, is under test):
//!
//! 1. **enrol-heavy** — 96 key-establishment sessions across 64 tenants
//!    whose popularity follows a Zipf(1.1) law, started in waves of 8
//!    that interleave on the gateway's executor; per-session latency is
//!    the wall time from wave start to that session's completion.
//! 2. **auth-heavy** — 600 Zipfian authentication requests: a tenant's
//!    first request enrols it (a full gateway session), every later
//!    request is an HMAC-SHA256 sign + constant-time verify against the
//!    established key.
//! 3. **fault-heavy** — 96 sessions under the reference [`FaultPlan`]
//!    mixture on the [`SimNet`], with ARQ recovery. The mix runs
//!    **twice** with a fresh causal [`EventLog`] each time: the two
//!    JSONL timeline exports must be byte-identical
//!    (`timelines_deterministic`), and no surviving session may hold
//!    divergent mobile/gateway keys.
//!
//! Each mix is judged by declarative [`SloSpec`]s — a p99 latency
//! objective (100 ms; the fault mix gets 4× slack for recovery backoff)
//! with a success-rate floor, plus a throughput floor (20 sessions/s on
//! the enrol mix) — calibrated ~15× above the 1-core container's
//! observed numbers so only real regressions trip. `slo_all_pass` folds
//! in every verdict, the determinism check and zero divergent keys.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use wavekey_bench::fleet::{run_fleet, Fleet};
use wavekey_bench::gate::{self, Check};
use wavekey_bench::traffic::{percentile, soak_config, Zipf};
use wavekey_core::agreement::RetryPolicy;
use wavekey_core::fault::{FaultPlan, FaultProfile};
use wavekey_core::MobileAgreement;
use wavekey_crypto::hmac::{hmac_sha256, mac_eq};
use wavekey_gateway::{Gateway, GatewayConfig, SimNet, StreamFaults};
use wavekey_obs::{
    EventLog, Json, MemoryCollector, MultiCollector, Obs, SloReport, SloSpec, SloVerdict,
};

const TENANTS: usize = 64;
const ZIPF_S: f64 = 1.1;
const SEED_LEN: usize = 24;
const ENROL_SESSIONS: u64 = 96;
const ENROL_WAVE: u64 = 8;
const AUTH_OPS: u64 = 600;
const FAULT_SESSIONS: u64 = 96;
const FAULT_SEED: u64 = 0x10AD_F417;
const SEED_BASE: u64 = 0x7E4A_47;
const RNG_BASE_MOBILE: u64 = 0x10AD_A;
const RNG_BASE_SERVER: u64 = 0x10AD_B;
/// The p99 latency objective of the enrol and auth mixes.
const SLO_P99_MS: f64 = 100.0;
/// The fault mix's p99 objective, as a multiple of [`SLO_P99_MS`].
const FAULT_P99_SLACK: f64 = 4.0;
/// The enrol mix's throughput floor.
const MIN_SESSIONS_PER_S: f64 = 20.0;

fn seed_pair(tenant: u64) -> (Vec<bool>, Vec<bool>) {
    wavekey_bench::traffic::seed_pair(SEED_BASE, tenant, SEED_LEN)
}

fn mobile_rng(i: u64) -> StdRng {
    StdRng::seed_from_u64(RNG_BASE_MOBILE + i)
}

/// Runs one ARQ gateway fleet over `net`: session `j` (conn id `j + 1`)
/// enrols `tenants[j]` with the mobile RNG stream `rng_base + j`, and
/// the gateway keys its per-connection RNGs from `rng_base` too.
fn enrol_fleet(obs: &Obs, net: &SimNet, tenants: &[u64], rng_base: u64) -> (Fleet, Gateway) {
    let config = GatewayConfig {
        server_seed: RNG_BASE_SERVER + rng_base,
        ..GatewayConfig::new(soak_config(RetryPolicy::arq()))
    };
    let seeds: Vec<_> = tenants.iter().map(|t| seed_pair(*t)).collect();
    let server_seeds: Vec<_> = seeds.iter().map(|(_, s_r)| s_r.clone()).collect();
    let gateway = Gateway::new(config.clone(), obs.clone(), move |conn_id| {
        server_seeds[conn_id as usize - 1].clone()
    });
    let mobile = |conn_id: u64| {
        let j = conn_id - 1;
        MobileAgreement::new(&seeds[j as usize].0, &config.agreement, mobile_rng(rng_base + j))
            .expect("mobile")
    };
    let n = tenants.len() as u64;
    let fleet = run_fleet(&gateway, &config, net, n, mobile, |_| StreamFaults::none());
    (fleet, gateway)
}

/// One mix's aggregate: latencies (ms), throughput, and outcome counts.
struct MixStats {
    name: &'static str,
    latencies_ms: Vec<f64>,
    ops: u64,
    successes: u64,
    retransmits: u64,
    elapsed_s: f64,
}

impl MixStats {
    fn success_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.successes as f64 / self.ops as f64
        }
    }

    fn ops_per_s(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.ops as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// Evaluates this mix's latency SLO and renders the mix JSON object.
    fn to_json(&self, report: &mut SloReport, p99_ms: f64, floor: f64) -> Json {
        let seconds: Vec<f64> = self.latencies_ms.iter().map(|ms| ms / 1e3).collect();
        let verdict = SloSpec::latency(&format!("{}_p99", self.name), 0.99, p99_ms / 1e3)
            .with_success_floor(floor)
            .evaluate(&seconds, self.success_rate());
        let json = Json::obj(vec![
            ("name", Json::Str(self.name.to_string())),
            ("ops", Json::Num(self.ops as f64)),
            ("successes", Json::Num(self.successes as f64)),
            ("success_rate", Json::Num(self.success_rate())),
            ("p50_ms", Json::Num(percentile(&self.latencies_ms, 0.50))),
            ("p90_ms", Json::Num(percentile(&self.latencies_ms, 0.90))),
            ("p99_ms", Json::Num(percentile(&self.latencies_ms, 0.99))),
            ("ops_per_s", Json::Num(self.ops_per_s())),
            ("retransmits", Json::Num(self.retransmits as f64)),
            ("slo", Json::Arr(vec![verdict.to_json()])),
        ]);
        report.push(verdict);
        json
    }
}

/// Starts `n` Zipfian-tenant sessions in waves of [`ENROL_WAVE`] and
/// drives each wave to completion, recording per-session latency.
fn enrol_mix(obs: &Obs) -> MixStats {
    let _mix = obs.span("mix_enrol");
    let zipf = Zipf::new(TENANTS, ZIPF_S);
    let mut tenant_rng = StdRng::seed_from_u64(FAULT_SEED ^ 0xE14);
    let mut latencies_ms = Vec::new();
    let mut successes = 0;
    let t_mix = Instant::now();
    for wave in 0..ENROL_SESSIONS / ENROL_WAVE {
        let _w = obs.span("enrol_wave");
        let tenants: Vec<u64> =
            (0..ENROL_WAVE).map(|_| zipf.sample(&mut tenant_rng) as u64).collect();
        let net = SimNet::new(1 << 16);
        let (fleet, _) = enrol_fleet(obs, &net, &tenants, wave * ENROL_WAVE);
        latencies_ms.extend(fleet.sessions.iter().map(|(_, t, _)| t * 1e3));
        successes += fleet.successes();
    }
    MixStats {
        name: "enrol_heavy",
        latencies_ms,
        ops: ENROL_SESSIONS,
        successes,
        retransmits: 0,
        elapsed_s: t_mix.elapsed().as_secs_f64(),
    }
}

/// Zipfian authentication traffic: first touch of a tenant enrols it
/// through a gateway session; every other op signs and verifies a
/// request against the tenant's established key.
fn auth_mix(obs: &Obs) -> MixStats {
    let _mix = obs.span("mix_auth");
    let zipf = Zipf::new(TENANTS, ZIPF_S);
    let mut op_rng = StdRng::seed_from_u64(FAULT_SEED ^ 0xA07);
    let mut keys: Vec<Option<Vec<u8>>> = vec![None; TENANTS];
    let mut latencies_ms = Vec::new();
    let mut successes = 0u64;
    let t_mix = Instant::now();
    for op in 0..AUTH_OPS {
        let tenant = zipf.sample(&mut op_rng);
        let t0 = Instant::now();
        if keys[tenant].is_none() {
            // Lazy enrolment: one full gateway session for this tenant.
            let _e = obs.span("auth_enrol");
            let net = SimNet::new(1 << 16);
            let (fleet, _) = enrol_fleet(obs, &net, &[tenant as u64], 0x1000 + op);
            keys[tenant] = fleet.sessions.into_iter().next().and_then(|(_, _, got)| got.ok());
        }
        let ok = match &keys[tenant] {
            Some(key) => {
                let _v = obs.span("auth_verify");
                let message = [b"req", &op.to_le_bytes()[..]].concat();
                let mac = hmac_sha256(key, &message);
                mac_eq(&hmac_sha256(key, &message), &mac)
            }
            None => false,
        };
        successes += ok as u64;
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    MixStats {
        name: "auth_heavy",
        latencies_ms,
        ops: AUTH_OPS,
        successes,
        retransmits: 0,
        elapsed_s: t_mix.elapsed().as_secs_f64(),
    }
}

/// One full fault-heavy pass over a dedicated observability handle;
/// returns the stats plus the number of divergent-key successes.
fn fault_mix_run(obs: &Obs) -> (MixStats, u64) {
    let plan = FaultPlan::new(FAULT_SEED, FaultProfile::reference());
    let net = SimNet::with_adversary(1 << 16, plan);
    let tenants: Vec<u64> = (0..FAULT_SESSIONS).collect();
    let (fleet, gateway) = enrol_fleet(obs, &net, &tenants, 0x2000);
    let latencies_ms = fleet.sessions.iter().map(|(_, t, _)| t * 1e3).collect();
    let stats = MixStats {
        name: "fault_heavy",
        latencies_ms,
        ops: FAULT_SESSIONS,
        successes: fleet.successes(),
        retransmits: net.retransmits(),
        elapsed_s: fleet.wall_s,
    };
    (stats, fleet.divergent(&gateway))
}

/// Runs the fault mix twice over fresh event logs; the causal timelines
/// must export byte-identically (events carry no wall-clock fields).
fn fault_mix(obs: &Obs) -> (MixStats, u64, bool, usize) {
    let _mix = obs.span("mix_faults");
    let run = || {
        let log = Arc::new(EventLog::new(512));
        let run_obs = Obs::new(log.clone());
        let (stats, divergent) = fault_mix_run(&run_obs);
        (stats, divergent, log.timelines_jsonl(), log.len())
    };
    let (stats, divergent, first, events) = run();
    let (_, _, second, _) = run();
    (stats, divergent, first == second, events)
}

/// Top profile stacks by total inclusive time, for the report.
fn top_stacks(obs: &Obs, n: usize) -> Json {
    let mut snapshot = obs.profile_snapshot();
    snapshot.sort_by(|a, b| b.1.total_s.partial_cmp(&a.1.total_s).expect("finite totals"));
    Json::Arr(
        snapshot
            .into_iter()
            .take(n)
            .map(|(path, stat)| {
                Json::obj(vec![
                    ("path", Json::Str(path)),
                    ("count", Json::Num(stat.count as f64)),
                    ("total_s", Json::Num(stat.total_s)),
                ])
            })
            .collect(),
    )
}

/// The gate: every mix's SLO verdict, the enrol mix's throughput floor,
/// deterministic fault timelines, and no divergent-key success.
fn checks(
    slo: &[SloVerdict],
    sessions_per_s: f64,
    deterministic: bool,
    divergent: u64,
) -> Vec<Check> {
    let mut checks: Vec<Check> = slo
        .iter()
        .map(|v| {
            let detail = format!(
                "p99 {:.1} ms, burn rate {:.2} (at most 1, objective {} ms), \
                 success {:.4} (at least {})",
                v.observed * 1e3,
                v.burn_rate,
                v.threshold * 1e3,
                v.success_rate,
                v.min_success_rate
            );
            Check::new(&v.name, v.pass, detail)
        })
        .collect();
    checks.extend([
        Check::at_least("enrol sessions/s", sessions_per_s, MIN_SESSIONS_PER_S),
        Check::holds("fault timelines deterministic", deterministic),
        Check::zero("divergent-key successes", divergent),
    ]);
    checks
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_load.json".to_string());

    let log = Arc::new(EventLog::new(512));
    let memory = Arc::new(MemoryCollector::new());
    let obs = Obs::new(Arc::new(MultiCollector::new(vec![memory, log.clone()])));

    eprintln!("[load_gen] enrol-heavy mix: {ENROL_SESSIONS} sessions, {TENANTS} Zipf tenants…");
    let enrol = enrol_mix(&obs);
    eprintln!("[load_gen] auth-heavy mix: {AUTH_OPS} ops…");
    let auth = auth_mix(&obs);
    eprintln!("[load_gen] fault-heavy mix: {FAULT_SESSIONS} sessions ×2 (determinism check)…");
    let (faults, divergent, deterministic, fault_events) = fault_mix(&obs);

    let mut report = SloReport::new();
    let enrol_json = enrol.to_json(&mut report, SLO_P99_MS, 0.99);
    let auth_json = auth.to_json(&mut report, SLO_P99_MS, 0.99);
    // The reference fault mixture kills a small tail even with ARQ; the
    // floor asks recovery to save ≥85% (the soak gate's territory).
    let faults_json = faults.to_json(&mut report, SLO_P99_MS * FAULT_P99_SLACK, 0.85);

    let sps = enrol.ops_per_s();
    let checks = checks(&report.verdicts, sps, deterministic, divergent);
    let all_pass = checks.iter().all(|c| c.pass);

    for mix in [&enrol, &auth, &faults] {
        println!(
            "{:<12} ops {:>4}  ok {:>5.3}  p50 {:>8.3} ms  p99 {:>8.3} ms  {:>7.1} ops/s  rtx {}",
            mix.name,
            mix.ops,
            mix.success_rate(),
            percentile(&mix.latencies_ms, 0.50),
            percentile(&mix.latencies_ms, 0.99),
            mix.ops_per_s(),
            mix.retransmits,
        );
    }
    println!("fault timelines           {fault_events} events/run");

    let json = Json::obj(vec![
        ("mixes", Json::Arr(vec![enrol_json, auth_json, faults_json])),
        ("sessions_per_s", Json::Num(sps)),
        ("min_sessions_per_s", Json::Num(MIN_SESSIONS_PER_S)),
        ("slo_p99_ms", Json::Num(SLO_P99_MS)),
        ("slo_all_pass", Json::Bool(all_pass)),
        ("timelines_deterministic", Json::Bool(deterministic)),
        ("divergent_key_successes", Json::Num(divergent as f64)),
        ("fault_events_per_run", Json::Num(fault_events as f64)),
        ("events_recorded", Json::Num(log.len() as f64)),
        ("events_dropped", Json::Num(log.dropped() as f64)),
        ("top_stacks", top_stacks(&obs, 8)),
    ]);
    wavekey_bench::write_results(&out_path, &format!("{}\n", json.to_string_pretty()));
    gate::enforce("SLO load", &checks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavekey_bench::gate::failing;

    #[test]
    fn each_condition_fails_alone() {
        let slo = |seconds| {
            let spec = SloSpec::latency("enrol_heavy_p99", 0.99, SLO_P99_MS / 1e3);
            [spec.with_success_floor(0.99).evaluate(&[seconds; 100], 1.0)]
        };
        let floor = MIN_SESSIONS_PER_S;
        assert!(failing(&checks(&slo(0.001), floor, true, 0)).is_empty());
        assert_eq!(failing(&checks(&slo(0.101), floor, true, 0)), ["enrol_heavy_p99"]);
        assert_eq!(failing(&checks(&slo(0.001), 19.9, true, 0)), ["enrol sessions/s"]);
        let deterministic = "fault timelines deterministic";
        assert_eq!(failing(&checks(&slo(0.001), floor, false, 0)), [deterministic]);
        assert_eq!(failing(&checks(&slo(0.001), floor, true, 1)), ["divergent-key successes"]);
    }
}
