//! Recovery soak for the durable store: kill-and-recover at **every**
//! journal record boundary, under fault-free and faulted arms, asserting
//! the recovered state is bit-identical to a never-crashed twin. Writes
//! `results/BENCH_store.json` (consumed by the ci.sh store soak gate)
//! and appends a trend line to `results/TREND.jsonl`.
//!
//! ```text
//! cargo run --release -p wavekey-bench --bin store_soak [out_path]
//! ```
//!
//! Six deterministic arms over a seeded multi-tenant workload
//! (`WAVEKEY_STORE_OPS` operations, default 220, across 4 tenants):
//!
//! 1. **kill at every boundary** — the journal is truncated at every
//!    record boundary (a crash exactly between appends); recovery must
//!    reproduce the twin's digest after exactly that many operations,
//!    and the full-journal recovery must be byte-identical to the twin.
//! 2. **torn tails** — the journal is cut **mid-record** at a
//!    hash-chosen offset inside every record (a crash mid-append);
//!    recovery must repair the tail and land on the preceding boundary.
//! 3. **bit rot** — one hash-chosen bit is flipped at every boundary's
//!    record; salvage recovery must land on some operation prefix and
//!    never surface a key the workload didn't bind ("divergent key").
//! 4. **live faults** — the same workload through a seeded
//!    `FaultedVolume` (reference profile: torn/short appends, silent
//!    rot, snapshot-rename failures); appends are retried after rollback
//!    and the surviving in-memory state must equal the twin's, with the
//!    final faulted media still recovering to an operation prefix.
//! 5. **snapshot equivalence** — the workload with periodic compacting
//!    snapshots must recover to the same bytes as the snapshot-free twin
//!    while replaying strictly fewer records.
//! 6. **reloads under a ceiling** — arm 4's faulted workload with a
//!    4-key memory ceiling, so most keys live only in their journal or
//!    snapshot homes. After every op a hash-chosen ticket is read; the
//!    read must return the fault-free twin's key as of that op, or a
//!    `StoreError` when rot hit the key's home — never an older
//!    generation (`ceiling_stale_keys == 0`), and reloads must happen
//!    (`ceiling_reloads > 0`).

use std::collections::HashMap;
use std::time::Instant;

use wavekey_bench::traffic::env_u64;
use wavekey_obs::Json;
use wavekey_store::record::decode_record;
use wavekey_store::state::TICKET_OVERHEAD_BYTES;
use wavekey_store::{
    DurableStore, FaultedVolume, MemVolume, StorageFaultProfile, StorageFaults, StoreConfig,
    StoreError, TenantQuota, Volume, JOURNAL_FILE,
};

const SOAK_SEED: u64 = 0x57_4A_2024;
const TENANTS: u64 = 4;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One workload operation. Every op appends exactly one journal record.
#[derive(Clone)]
enum Op {
    CreateTenant,
    Issue { tenant: u64, epc: [u8; 12] },
    Bind { tenant: u64, epc: [u8; 12], key: [u8; 32] },
    Rotate { tenant: u64, epc: [u8; 12], key: [u8; 32] },
    ReEnroll { tenant: u64, epc: [u8; 12], key: [u8; 32] },
    Revoke { tenant: u64, epc: [u8; 12] },
}

fn epc_of(tenant: u64, slot: u64) -> [u8; 12] {
    let mut epc = [0u8; 12];
    epc[0] = b'S';
    epc[1] = b'K';
    epc[2] = tenant as u8;
    epc[4..].copy_from_slice(&mix(SOAK_SEED ^ (tenant << 32) ^ slot).to_le_bytes());
    epc
}

fn key_of(nonce: u64) -> [u8; 32] {
    let mut key = [0u8; 32];
    for (i, chunk) in key.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(SOAK_SEED ^ nonce ^ (i as u64) << 56).to_le_bytes());
    }
    key
}

/// The seeded workload: tenants first, then a mixed stream of issues,
/// binds, rotations, re-enrolments, and revocations. Binds always
/// follow an issue of the same EPC; rotations/re-enrolments only target
/// bound EPCs, so every op applies cleanly.
fn workload(ops: u64) -> Vec<Op> {
    let mut out: Vec<Op> = (0..TENANTS).map(|_| Op::CreateTenant).collect();
    let mut bound: Vec<(u64, [u8; 12])> = Vec::new();
    let mut slot = [0u64; TENANTS as usize];
    let mut i = 0u64;
    while (out.len() as u64) < ops {
        i += 1;
        let tenant = 1 + mix(SOAK_SEED ^ i) % TENANTS;
        match mix(SOAK_SEED ^ i ^ 0xFEED) % 10 {
            // Issue + immediately bind: the common enrolment shape.
            0..=4 => {
                let s = &mut slot[(tenant - 1) as usize];
                let epc = epc_of(tenant, *s);
                *s += 1;
                out.push(Op::Issue { tenant, epc });
                out.push(Op::Bind { tenant, epc, key: key_of(i) });
                bound.push((tenant, epc));
            }
            5..=6 if !bound.is_empty() => {
                let (tenant, epc) = bound[(mix(i ^ 0xA0) % bound.len() as u64) as usize];
                out.push(Op::Rotate { tenant, epc, key: key_of(i ^ 0xB1) });
            }
            7..=8 if !bound.is_empty() => {
                let (tenant, epc) = bound[(mix(i ^ 0xC2) % bound.len() as u64) as usize];
                out.push(Op::ReEnroll { tenant, epc, key: key_of(i ^ 0xD3) });
            }
            9 if bound.len() > 2 => {
                let at = (mix(i ^ 0xE4) % bound.len() as u64) as usize;
                let (tenant, epc) = bound.remove(at);
                out.push(Op::Revoke { tenant, epc });
            }
            _ => continue,
        }
    }
    out.truncate(ops as usize);
    out
}

/// Applies one op, retrying after media faults (the store rolls a failed
/// append back, so a retry is safe). Returns attempts used.
fn apply(store: &mut DurableStore, op: &Op) -> u64 {
    for attempt in 1..=16u64 {
        let outcome: Result<(), StoreError> = match op {
            Op::CreateTenant => store
                .create_tenant(TenantQuota { max_tickets: 1 << 20, enroll_burst: u32::MAX, enroll_refill: 0 })
                .map(|_| ()),
            Op::Issue { tenant, epc } => store.issue(*tenant, *epc, 0).map(|_| ()),
            Op::Bind { tenant, epc, key } => store.bind_key(*tenant, *epc, key).map(|_| ()),
            Op::Rotate { tenant, epc, key } => store.rotate_key(*tenant, *epc, key).map(|_| ()),
            Op::ReEnroll { tenant, epc, key } => store.re_enroll(*tenant, *epc, key).map(|_| ()),
            Op::Revoke { tenant, epc } => store.revoke(*tenant, *epc),
        };
        match outcome {
            Ok(()) => return attempt,
            Err(StoreError::Io(_)) => continue,
            Err(e) => panic!("workload op rejected: {e}"),
        }
    }
    panic!("an append faulted 16 times in a row — fault plan is wrong");
}

/// Key history oracle: every key each `(tenant, epc)` ever held. A
/// recovered key outside this set is a divergent key — state that no
/// prefix of the workload can explain.
fn key_history(ops: &[Op]) -> HashMap<(u64, [u8; 12]), Vec<[u8; 32]>> {
    let mut history: HashMap<(u64, [u8; 12]), Vec<[u8; 32]>> = HashMap::new();
    for op in ops {
        match op {
            Op::Bind { tenant, epc, key }
            | Op::Rotate { tenant, epc, key }
            | Op::ReEnroll { tenant, epc, key } => {
                history.entry((*tenant, *epc)).or_default().push(*key);
            }
            _ => {}
        }
    }
    history
}

fn divergent_keys(
    store: &DurableStore,
    history: &HashMap<(u64, [u8; 12]), Vec<[u8; 32]>>,
) -> u64 {
    let mut divergent = 0;
    for (&(tenant, epc), held) in history {
        if let Some(key) = store.peek_key(tenant, epc) {
            if !held.iter().any(|h| h == key) {
                divergent += 1;
            }
        }
    }
    divergent
}

/// The seeded reference-profile fault plan arms 4 and 6 run under.
fn live_faults() -> StorageFaults {
    StorageFaults::new(SOAK_SEED ^ 0xFA11, StorageFaultProfile::reference())
}

/// Arm 6's outcome: reads that disagreed with the twin without an error,
/// reads that failed with a `StoreError`, and the store's reload count.
struct CeilingArm {
    stale_keys: u64,
    read_errors: u64,
    reloads: u64,
}

/// Runs `ops` on reference-profile faulted media under a 4-key ceiling
/// beside a fault-free, ceiling-free twin, reading one hash-chosen issued
/// ticket from both after every op.
fn ceiling_arm(ops: &[Op]) -> CeilingArm {
    let faulted = FaultedVolume::new(MemVolume::new(), live_faults());
    let config = StoreConfig {
        memory_ceiling_bytes: 4 * (TICKET_OVERHEAD_BYTES + 32),
        snapshot_every: 64,
        ..StoreConfig::default()
    };
    let mut store = DurableStore::open(Box::new(faulted), config).expect("open ceiling store");
    let mut twin =
        DurableStore::open(Box::new(MemVolume::new()), StoreConfig::default()).expect("open twin");
    let mut issued: Vec<(u64, [u8; 12])> = Vec::new();
    let mut arm = CeilingArm { stale_keys: 0, read_errors: 0, reloads: 0 };
    for (i, op) in ops.iter().enumerate() {
        apply(&mut store, op);
        apply(&mut twin, op);
        if let Op::Issue { tenant, epc } = op {
            issued.push((*tenant, *epc));
        }
        if issued.is_empty() {
            continue;
        }
        let pick = mix(SOAK_SEED ^ 0x6E1 ^ i as u64) % issued.len() as u64;
        let (tenant, epc) = issued[pick as usize];
        let want = twin.key_for(tenant, epc).expect("fault-free read").map(<[u8]>::to_vec);
        match store.key_for(tenant, epc) {
            Ok(got) if got.map(<[u8]>::to_vec) == want => {}
            Ok(_) => arm.stale_keys += 1,
            Err(_) => arm.read_errors += 1,
        }
    }
    arm.reloads = store.stats().reloads;
    arm
}

fn reopen_with(media: &MemVolume, cut: Option<usize>, salvage: bool) -> DurableStore {
    let mut image = media.deep_clone();
    if let Some(cut) = cut {
        let journal = image.read(JOURNAL_FILE).expect("read").unwrap_or_default();
        image
            .write(JOURNAL_FILE, &journal[..cut.min(journal.len())])
            .expect("truncate image");
    }
    let config = StoreConfig { salvage_corruption: salvage, ..StoreConfig::default() };
    DurableStore::open(Box::new(image), config).expect("recovery never fails")
}

/// Appends one store line to the `results/TREND.jsonl` run ledger.
fn append_trend(ops: u64, kill_points: u64, rate: f64, pass: bool) -> u64 {
    let prior = std::fs::read_to_string("results/TREND.jsonl").unwrap_or_default();
    let run = prior
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .and_then(Json::parse)
        .as_ref()
        .and_then(|j| j.get("run"))
        .and_then(Json::as_f64)
        .map_or(1, |r| r as u64 + 1);
    let line = Json::obj(vec![
        ("run", Json::Num(run as f64)),
        ("store_ops", Json::Num(ops as f64)),
        ("store_kill_points", Json::Num(kill_points as f64)),
        ("store_recovered_rate", Json::Num(rate)),
        ("store_pass", Json::Bool(pass)),
    ]);
    let appended = format!("{}{}\n", prior, line.to_string_compact());
    wavekey_bench::write_results("results/TREND.jsonl", &appended);
    run
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_store.json".to_string());
    let op_count = env_u64("WAVEKEY_STORE_OPS", 220);
    let started = Instant::now();

    let ops = workload(op_count);
    let history = key_history(&ops);

    // The never-crashed twin, and its digest after every operation.
    let media = MemVolume::new();
    let mut twin =
        DurableStore::open(Box::new(media.clone()), StoreConfig::default()).expect("open twin");
    let mut digests = vec![twin.full_digest().expect("digest")];
    for op in &ops {
        apply(&mut twin, op);
        digests.push(twin.full_digest().expect("digest"));
    }
    let twin_bytes = twin.full_state_bytes().expect("twin bytes");
    let journal = media.read(JOURNAL_FILE).expect("read").expect("journal exists");

    // Record boundaries of the final journal (one record per op).
    let mut bounds = vec![0usize];
    let mut at = 0usize;
    while at < journal.len() {
        let (_, used) = decode_record(&journal[at..]).expect("twin journal is clean");
        at += used;
        bounds.push(at);
    }
    assert_eq!(bounds.len() as u64, op_count + 1, "one record per op");

    eprintln!("[store_soak] arm 1: kill at every record boundary ({op_count} ops)…");
    let mut kill_points = 0u64;
    let mut recovered_ok = 0u64;
    for (i, &cut) in bounds.iter().enumerate() {
        let mut back = reopen_with(&media, Some(cut), false);
        kill_points += 1;
        if back.full_digest().expect("digest") == digests[i] {
            recovered_ok += 1;
        }
    }
    let mut full = reopen_with(&media, None, false);
    let fault_free_bit_identical = full.full_state_bytes().expect("bytes") == twin_bytes
        && full.full_digest().expect("digest") == *digests.last().unwrap();

    eprintln!("[store_soak] arm 2: torn tail inside every record…");
    let mut torn_prefix_consistent = true;
    for (i, pair) in bounds.windows(2).enumerate() {
        let width = pair[1] - pair[0];
        let cut = pair[0] + 1 + (mix(SOAK_SEED ^ pair[0] as u64) % (width as u64 - 1)) as usize;
        let mut back = reopen_with(&media, Some(cut), false);
        kill_points += 1;
        let ok = back.full_digest().expect("digest") == digests[i]
            && back.stats().torn_tails_repaired == 1;
        recovered_ok += u64::from(ok);
        torn_prefix_consistent &= ok;
    }

    eprintln!("[store_soak] arm 3: bit rot at every record…");
    let mut bitrot_prefix_consistent = true;
    let mut rot_divergent = 0u64;
    for &off in bounds.iter().take(bounds.len() - 1) {
        let mut image = media.deep_clone();
        let mut rotted = journal.clone();
        let bit = mix(SOAK_SEED ^ 0xB17 ^ off as u64) % 8;
        rotted[off + (mix(off as u64) % 24) as usize] ^= 1 << bit;
        image.write(JOURNAL_FILE, &rotted).expect("write rot");
        let config = StoreConfig { salvage_corruption: true, ..StoreConfig::default() };
        let mut back = DurableStore::open(Box::new(image), config).expect("salvage");
        kill_points += 1;
        let ok = digests.contains(&back.full_digest().expect("digest"));
        recovered_ok += u64::from(ok);
        bitrot_prefix_consistent &= ok;
        rot_divergent += divergent_keys(&back, &history);
    }

    eprintln!("[store_soak] arm 4: live faulted media (reference profile)…");
    let faulted_media = MemVolume::new();
    let faulted_volume = FaultedVolume::new(faulted_media.clone(), live_faults());
    let live_config = StoreConfig { snapshot_every: 64, ..StoreConfig::default() };
    let mut live = DurableStore::open(Box::new(faulted_volume), live_config).expect("open faulted");
    let mut retries = 0u64;
    for op in &ops {
        retries += apply(&mut live, op) - 1;
    }
    let live_final_identical = live.full_state_bytes().expect("live bytes") == twin_bytes;
    let live_stats = *live.stats();
    // The faulted media itself (rot and all) must still recover to an
    // operation prefix of the faulted run's own history. Snapshots
    // compact the journal, so compare against live state, not digests[].
    let rec_config = StoreConfig { salvage_corruption: true, ..StoreConfig::default() };
    let mut faulted_back =
        DurableStore::open(Box::new(faulted_media.deep_clone()), rec_config).expect("recover");
    let live_recovery_divergent = divergent_keys(&faulted_back, &history);
    let live_recovery_prefix = digests.contains(&faulted_back.full_digest().expect("digest"));

    eprintln!("[store_soak] arm 5: snapshot + tail replay equivalence…");
    let snap_media = MemVolume::new();
    let snap_config = StoreConfig { snapshot_every: 0, ..StoreConfig::default() };
    let mut snap = DurableStore::open(Box::new(snap_media.clone()), snap_config).expect("open");
    for (i, op) in ops.iter().enumerate() {
        apply(&mut snap, op);
        if i == ops.len() / 2 {
            snap.snapshot().expect("snapshot");
        }
    }
    let mut snap_back =
        reopen_with(&snap_media, None, false);
    let snapshot_equivalent = snap_back.full_state_bytes().expect("bytes") == twin_bytes
        && snap_back.stats().records_replayed < op_count;

    eprintln!("[store_soak] arm 6: reads under a 4-key ceiling on faulted media…");
    let ceiling = ceiling_arm(&ops);

    let recovered_rate = recovered_ok as f64 / kill_points as f64;
    let divergent = rot_divergent + live_recovery_divergent;
    let wall_s = started.elapsed().as_secs_f64();
    let store_soak_pass = fault_free_bit_identical
        && torn_prefix_consistent
        && bitrot_prefix_consistent
        && live_final_identical
        && live_recovery_prefix
        && snapshot_equivalent
        && ceiling.stale_keys == 0
        && ceiling.reloads > 0
        && divergent == 0
        && recovered_rate >= 1.0;
    let trend_run = append_trend(op_count, kill_points, recovered_rate, store_soak_pass);

    println!("ops                        {op_count}  ({} journal bytes)", journal.len());
    println!("kill points                {kill_points}");
    println!("recovered ok               {recovered_ok}  (rate {recovered_rate:.4})");
    println!("divergent keys             {divergent}");
    println!("fault_free_bit_identical   {fault_free_bit_identical}");
    println!("torn_prefix_consistent     {torn_prefix_consistent}");
    println!("bitrot_prefix_consistent   {bitrot_prefix_consistent}");
    println!(
        "live faulted               identical {live_final_identical}, retries {retries}, repairs {}, rename failures {}, snapshots {}",
        live_stats.append_repairs, live_stats.rename_failures, live_stats.snapshots
    );
    println!("snapshot_equivalent        {snapshot_equivalent}");
    println!(
        "ceiling reads              stale {}, store errors {}, reloads {}",
        ceiling.stale_keys, ceiling.read_errors, ceiling.reloads
    );
    println!("wall                       {wall_s:.2} s");
    println!("store_soak_pass            {store_soak_pass}");

    let json = Json::obj(vec![
        ("ops", Json::Num(op_count as f64)),
        ("journal_bytes", Json::Num(journal.len() as f64)),
        ("kill_points", Json::Num(kill_points as f64)),
        ("recovered_ok", Json::Num(recovered_ok as f64)),
        ("recovered_rate", Json::Num(recovered_rate)),
        ("divergent_keys", Json::Num(divergent as f64)),
        ("fault_free_bit_identical", Json::Bool(fault_free_bit_identical)),
        ("torn_prefix_consistent", Json::Bool(torn_prefix_consistent)),
        ("bitrot_prefix_consistent", Json::Bool(bitrot_prefix_consistent)),
        ("live_final_identical", Json::Bool(live_final_identical)),
        ("live_recovery_prefix_consistent", Json::Bool(live_recovery_prefix)),
        ("live_retries", Json::Num(retries as f64)),
        ("live_append_repairs", Json::Num(live_stats.append_repairs as f64)),
        ("live_rename_failures", Json::Num(live_stats.rename_failures as f64)),
        ("live_snapshots", Json::Num(live_stats.snapshots as f64)),
        ("snapshot_equivalent", Json::Bool(snapshot_equivalent)),
        ("ceiling_stale_keys", Json::Num(ceiling.stale_keys as f64)),
        ("ceiling_read_errors", Json::Num(ceiling.read_errors as f64)),
        ("ceiling_reloads", Json::Num(ceiling.reloads as f64)),
        ("wall_s", Json::Num(wall_s)),
        ("store_soak_pass", Json::Bool(store_soak_pass)),
        ("trend_run", Json::Num(trend_run as f64)),
    ]);
    wavekey_bench::write_results(&out_path, &format!("{}\n", json.to_string_pretty()));
    if !store_soak_pass {
        std::process::exit(1);
    }
}
