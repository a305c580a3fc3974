//! What a gateway session costs on the heap, measured with the counting
//! global allocator `gateway_soak` reports with.
//!
//! - 256 sessions run at once through one gateway (all connected before
//!   the executor starts, as in `gateway_soak`): the peak live heap over
//!   the fleet, divided by 256, stays under a per-session ceiling. That
//!   covers both machines, the stream, link and decoder buffers, both
//!   connection futures, the executor's per-task state and the table
//!   entry.
//! - A gateway reporting into a `FlightRecorder`, which keeps no causal
//!   events, binds no event scope: its fleet makes no more allocations
//!   per session than the same fleet with observability off.
//!
//! The whole file is one `#[test]`, so no other test allocates while it
//! measures, and it pins `WAVEKEY_THREADS=1` before any group arithmetic
//! runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavekey_core::agreement::AgreementConfig;
use wavekey_core::MobileAgreement;
use wavekey_gateway::{drive_mobile, Executor, Gateway, GatewayConfig, SimNet};
use wavekey_obs::{FlightRecorder, Obs};

#[path = "../../wavekey-bench/src/count_alloc.rs"]
mod count_alloc;

#[global_allocator]
static ALLOC: count_alloc::Counting = count_alloc::Counting;

/// The gateway soak's protocol settings: tiny group, relaxed τ.
fn agreement() -> AgreementConfig {
    AgreementConfig { use_tiny_group: true, tau: 10.0, bch_t: 5, ..Default::default() }
}

/// Mobile and server seed bits of session `conn_id`, one bit apart.
fn seed_pair(conn_id: u64) -> (Vec<bool>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(0xF007_0000 + conn_id);
    let s_m: Vec<bool> = (0..24).map(|_| rng.gen()).collect();
    let mut s_r = s_m.clone();
    s_r[conn_id as usize % 24] ^= true;
    (s_m, s_r)
}

/// Runs `n` sessions through a fresh gateway reporting into `obs`, all
/// in flight at once, and returns how many mobiles got a key.
fn fleet(obs: Obs, n: u64) -> usize {
    let config = GatewayConfig::new(agreement());
    let gateway = Gateway::new(config.clone(), obs, |id| seed_pair(id).1);
    let net = SimNet::new(1 << 16);
    let mut exec = Executor::new();
    gateway.listen(&exec.handle(), &net);
    {
        // Closes the listener once everything else has quiesced.
        let (handle, net) = (exec.handle(), net.clone());
        exec.spawn(async move {
            handle.sleep(1_000_000).await;
            net.close();
        });
    }
    let keys = Rc::new(RefCell::new(0usize));
    for _ in 0..n {
        let stream = net.connect().expect("listener open");
        let id = stream.conn_id();
        let (handle, keys) = (exec.handle(), Rc::clone(&keys));
        let (agreement, idle) = (config.agreement, config.idle_ticks);
        // The machine is built inside the task, as the benchmark's
        // readers build theirs, so the task holds it once: inside
        // `drive_mobile`'s future.
        exec.spawn(async move {
            let seed = seed_pair(id).0;
            let mobile = MobileAgreement::new(&seed, &agreement, StdRng::seed_from_u64(id))
                .expect("mobile");
            let delay = agreement.channel_delay;
            if drive_mobile(handle, stream, mobile, delay, idle).await.is_ok() {
                *keys.borrow_mut() += 1;
            }
        });
    }
    exec.run();
    assert_eq!(gateway.table().peak_live(), n, "every session in flight at once");
    let got = *keys.borrow();
    got
}

#[test]
fn gateway_sessions_stay_under_their_heap_ceiling() {
    std::env::set_var("WAVEKEY_THREADS", "1");
    // Warm-up: the shared group, the BCH code and the thread-locals.
    assert_eq!(fleet(Obs::disabled(), 8), 8);

    // Peak live heap per in-flight session, 256 sessions at once. It
    // measured 4,805 B in 19 blocks per session here; the ceilings sit
    // about 10 % above that, so a connection future that grows fails.
    const SESSIONS: u64 = 256;
    const CEILING_BYTES: isize = 5_300;
    const CEILING_BLOCKS: isize = 21;
    let (keys, peak_bytes, peak_blocks) =
        count_alloc::peak_of(|| fleet(Obs::disabled(), SESSIONS));
    assert_eq!(keys, SESSIONS as usize);
    let per_session = peak_bytes / SESSIONS as isize;
    let blocks = peak_blocks / SESSIONS as isize;
    eprintln!(
        "peak live heap per session: {per_session} B, {blocks} blocks \
         (ceiling {CEILING_BYTES} B, {CEILING_BLOCKS} blocks)"
    );
    assert!(per_session <= CEILING_BYTES, "{per_session} B per session");
    assert!(blocks <= CEILING_BLOCKS, "{blocks} blocks per session");

    // A recorder-only collector: the same allocations as no collector,
    // up to the registry's one-off counter names.
    const FLEET: u64 = 64;
    let calls = |obs: Obs| {
        let before = count_alloc::calls();
        assert_eq!(fleet(obs, FLEET), FLEET as usize);
        count_alloc::calls() - before
    };
    let off = calls(Obs::disabled());
    let recorder = calls(Obs::new(Arc::new(FlightRecorder::new(256))));
    eprintln!("allocations, fleet of {FLEET}: {off} with obs off, {recorder} over a FlightRecorder");
    assert!(
        recorder < off + FLEET,
        "a FlightRecorder gateway allocated {recorder} times against {off}: it binds event scopes"
    );
}
