//! The async WaveKey gateway.
//!
//! [`Gateway`] is the event-loop face of the protocol: it accepts
//! simulated connections from a [`SimNet`] and drives one
//! [`ServerAgreement`] per connection over the connection's frame channel
//! (the [`wavekey_core::proto::Link`] the net attaches). Both ends of a
//! connection run one loop, generic over the machine's role: the gateway
//! runs it for each accepted connection, [`drive_mobile`] for the client.
//! The sans-IO split does the heavy lifting — machines never see
//! sockets, the gateway never sees group elements — so a gateway
//! session's key is **bit-identical** to the lockstep driver's for the
//! same seeds and RNGs, regardless of how the bytes were chunked,
//! stalled, or interleaved in flight.
//!
//! The loop handles, per connection:
//!
//! - incremental framing through the streaming [`Decoder`], with resync
//!   (garbage never kills the loop),
//! - the frame channel: every frame carries its sender's clock, so the
//!   `2 + τ` fence is charged for the sender's compute and any relay
//!   delay, and under a net adversary the link's ARQ recovers drops
//!   and damage,
//! - a bounded write queue: flush-before-read, with eviction when the
//!   queue overflows or stops draining (`reason="backpressure"`),
//! - idle eviction on the executor's logical clock — timers only fire
//!   when the whole system quiesces, so a *slow* peer is never confused
//!   with a *gone* peer (`reason="idle"`).
//!
//! It reports how the session ended and leaves the accounting to its
//! caller. On the gateway one function accounts for every session's end:
//! a per-connection [`EventScope`] causal timeline under actor
//! `"gateway"`, the completion, failure and eviction counters (every
//! protocol failure under `wavekey_failures_total{label=...}`), the
//! enrolment sink and the session table. Graceful shutdown rejects new
//! connections (`reason="shutdown"`) while accepted sessions drain to
//! completion.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wavekey_core::agreement::{AgreementConfig, AgreementError};
use wavekey_core::proto::{Agreement, Decoder, MobileAgreement, Role, ServerAgreement, State};
use wavekey_obs::{EventScope, Obs};
use wavekey_store::{DurableStore, StoreError, TenantQuota};

use crate::exec::{race, Either, Handle};
use crate::stream::{SimNet, SimStream};
use crate::table::{EvictReason, SessionOutcome, SessionTable};

/// Gateway tuning knobs on top of the protocol's [`AgreementConfig`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Protocol parameters for every session.
    pub agreement: AgreementConfig,
    /// Per-connection write-queue byte bound; overflow evicts.
    pub write_queue_cap: usize,
    /// Logical ticks a connection may sit idle (no readable bytes, or
    /// no write progress) before eviction.
    pub idle_ticks: u64,
    /// Base seed for per-connection server RNG derivation.
    pub server_seed: u64,
}

impl GatewayConfig {
    /// Defaults sized for soak fleets: 64 KiB write queues, 32-tick idle
    /// budget.
    pub fn new(agreement: AgreementConfig) -> GatewayConfig {
        GatewayConfig {
            agreement,
            write_queue_cap: 1 << 16,
            idle_ticks: 32,
            server_seed: 0xC0_F7EE,
        }
    }
}

/// The deterministic per-connection server RNG: the soak driver derives
/// the same stream to mirror a gateway session in the lockstep driver.
pub fn server_rng(base: u64, conn_id: u64) -> StdRng {
    StdRng::seed_from_u64(base ^ conn_id.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Adapts a sensing [`wavekey_core::Session`] into a [`Gateway`] seed
/// source: every accepted connection simulates one fresh gesture and
/// hands the server-side seed `S_R` to the agreement. The session's
/// encoder routing applies, so a config with `quantized_inference` set
/// (and calibrated models) runs every gateway session on the int8 path.
///
/// The returned closure panics if the sensing pipeline fails — gateway
/// deployments that need graceful sensing fallback should wrap their own
/// seed source.
pub fn session_seed_fn(session: wavekey_core::Session) -> impl Fn(u64) -> Vec<bool> {
    let cell = std::cell::RefCell::new(session);
    move |_conn_id| {
        let (_, s_r) = cell.borrow_mut().derive_seeds().expect("sensing pipeline");
        s_r
    }
}

/// Persists completed gateway enrolments into a [`DurableStore`].
///
/// The executor is single-threaded, so the store is shared across
/// connection tasks as `Rc<RefCell<_>>` — no locks, no Send bound. Each
/// connection maps to a synthetic gateway EPC (`"GW" ‖ 0 ‖ 0 ‖ conn_id`),
/// issued on first completion; re-connects of the same `conn_id` land as
/// re-enrolments so the key generation advances instead of forking.
pub struct EnrollmentSink {
    store: Rc<RefCell<DurableStore>>,
    tenant: u64,
}

impl EnrollmentSink {
    /// A sink writing under `tenant` (created unlimited if absent).
    pub fn new(store: Rc<RefCell<DurableStore>>, tenant: u64) -> Result<EnrollmentSink, StoreError> {
        store.borrow_mut().ensure_tenant(tenant, TenantQuota::unlimited())?;
        Ok(EnrollmentSink { store, tenant })
    }

    /// The synthetic EPC a connection's enrolment is stored under.
    pub fn epc_for(conn_id: u64) -> [u8; 12] {
        let mut epc = [0u8; 12];
        epc[0] = b'G';
        epc[1] = b'W';
        epc[4..].copy_from_slice(&conn_id.to_le_bytes());
        epc
    }

    /// The shared store handle (for draining / inspection after a run).
    pub fn store(&self) -> Rc<RefCell<DurableStore>> {
        Rc::clone(&self.store)
    }

    fn persist(&self, conn_id: u64, key: &[u8]) -> Result<(), StoreError> {
        let mut store = self.store.borrow_mut();
        let epc = Self::epc_for(conn_id);
        if store.state().ticket(self.tenant, &epc).is_none() {
            store.issue(self.tenant, epc, 0)?;
        }
        store.enroll(self.tenant, epc, key).map(drop)
    }
}

struct GatewayInner {
    config: GatewayConfig,
    obs: Obs,
    table: SessionTable,
    accepting: Cell<bool>,
    rejected: Cell<u64>,
    seed_fn: Box<dyn Fn(u64) -> Vec<bool>>,
    sink: Option<EnrollmentSink>,
}

/// A cloneable handle to one gateway instance.
///
/// The gateway is `!Send`: its seed source and enrolment sink are not
/// thread-safe, and every task it spawns runs on the executor's one
/// thread. Its state is therefore shared through `Rc` and `Cell`.
#[derive(Clone)]
pub struct Gateway {
    inner: Rc<GatewayInner>,
}

impl Gateway {
    /// A gateway running `config`, reporting into `obs`, and asking
    /// `seed_fn(conn_id)` for the server-side RFID seed bits of each
    /// accepted connection (the deployment's sensing front-end; the
    /// soak's scripted per-session seeds).
    pub fn new(
        config: GatewayConfig,
        obs: Obs,
        seed_fn: impl Fn(u64) -> Vec<bool> + 'static,
    ) -> Gateway {
        Gateway::build(config, obs, seed_fn, None)
    }

    /// Like [`Gateway::new`], but every completed session's key is also
    /// written through `sink` into its durable store before the session
    /// is marked done — a crash after completion replays the enrolment.
    pub fn with_sink(
        config: GatewayConfig,
        obs: Obs,
        seed_fn: impl Fn(u64) -> Vec<bool> + 'static,
        sink: EnrollmentSink,
    ) -> Gateway {
        Gateway::build(config, obs, seed_fn, Some(sink))
    }

    fn build(
        config: GatewayConfig,
        obs: Obs,
        seed_fn: impl Fn(u64) -> Vec<bool> + 'static,
        sink: Option<EnrollmentSink>,
    ) -> Gateway {
        Gateway {
            inner: Rc::new(GatewayInner {
                config,
                obs,
                table: SessionTable::new(),
                accepting: Cell::new(true),
                rejected: Cell::new(0),
                seed_fn: Box::new(seed_fn),
                sink,
            }),
        }
    }

    /// The session table (live gauges and terminal outcomes).
    pub fn table(&self) -> &SessionTable {
        &self.inner.table
    }

    /// Connections rejected (accept-time errors or shutdown).
    pub fn rejected(&self) -> u64 {
        self.inner.rejected.get()
    }

    /// Spawns the accept loop onto the executor.
    pub fn listen(&self, handle: &Handle, net: &SimNet) {
        let gw = Rc::clone(&self.inner);
        let net = net.clone();
        let handle2 = handle.clone();
        handle.spawn(accept_loop(gw, handle2, net));
    }

    /// Begins graceful shutdown: the listener refuses new connects,
    /// queued-but-unaccepted connections are rejected with
    /// `reason="shutdown"`, and every in-flight session drains to its
    /// natural end.
    pub fn shutdown(&self, net: &SimNet) {
        self.inner.accepting.set(false);
        net.close();
    }
}

impl GatewayInner {
    fn count_evict(&self, reason: EvictReason) {
        self.obs.with_registry(|r| {
            r.inc_counter(&format!("wavekey_evictions_total{{reason=\"{}\"}}", reason.label()), 1);
        });
    }

    /// Accounts for the end of a server session: its timeline event, its
    /// counters (with the decoder's `resyncs`), the sink and the table.
    /// A completed key is written through the sink, if one is attached,
    /// before the session is marked done. A persistence failure doesn't
    /// fail the session — the peer already holds the key — but it is
    /// counted and time-lined so an operator sees the durability gap.
    fn end_session(&self, id: u64, outcome: SessionOutcome, resyncs: u64, scope: &EventScope) {
        if resyncs > 0 {
            self.obs.add("gateway_frame_resyncs", resyncs);
        }
        match &outcome {
            SessionOutcome::Done(key) => {
                scope.emit("complete");
                self.obs.inc("gateway_sessions_completed");
                match self.sink.as_ref().map(|sink| sink.persist(id, key)) {
                    Some(Ok(())) => {
                        self.obs.inc("gateway_enrollments_persisted");
                        scope.emit("persist");
                    }
                    Some(Err(_)) => {
                        self.obs.inc("gateway_enrollment_persist_failures");
                        scope.emit_full("persist_failed", None, None, None);
                    }
                    None => {}
                }
            }
            SessionOutcome::Failed(err) => {
                self.obs.inc("gateway_sessions_failed");
                self.obs.with_registry(|r| {
                    let name = format!("wavekey_failures_total{{label=\"{}\"}}", err.label());
                    r.inc_counter(&name, 1);
                });
                scope.emit("protocol_error");
            }
            SessionOutcome::Evicted(reason) => {
                self.count_evict(*reason);
                scope.emit_full("evict", Some(reason.label()), None, None);
            }
        }
        self.table.finish(id, outcome);
    }
}

async fn accept_loop(gw: Rc<GatewayInner>, handle: Handle, net: SimNet) {
    // The listener closing ends the loop.
    while let Ok(stream) = net.accept().await {
        if !gw.accepting.get() {
            gw.rejected.set(gw.rejected.get() + 1);
            gw.count_evict(EvictReason::Shutdown);
            stream.close();
            continue;
        }
        let id = stream.conn_id();
        let seed = (gw.seed_fn)(id);
        let rng = server_rng(gw.config.server_seed, id);
        let Ok(mut server) = ServerAgreement::new(&seed, &gw.config.agreement, rng) else {
            gw.rejected.set(gw.rejected.get() + 1);
            stream.close();
            continue;
        };
        let scope = EventScope::new(&gw.obs, id, "gateway");
        if scope.is_enabled() {
            server.bind_events(scope.with_actor("server"));
        }
        scope.emit("accept");
        gw.obs.inc("gateway_conns_accepted");
        // An `async move` block stores what it captures once; an
        // `async fn` would keep each by-value argument twice in its
        // future (the argument, and the local it is moved into), and the
        // machine is most of the state.
        let (gw, conn_handle) = (Rc::clone(&gw), handle.clone());
        handle.spawn(async move {
            gw.table.insert(id);
            let c = &gw.config;
            let (delay, idle, cap) = (c.agreement.channel_delay, c.idle_ticks, c.write_queue_cap);
            let (end, resyncs) =
                connection(&conn_handle, &stream, &mut server, delay, idle, cap, &scope).await;
            gw.end_session(id, end, resyncs, &scope);
            stream.close();
        });
    }
}

/// One end of a session, on either side of the connection: starts the
/// machine, then flushes its replies and feeds it what the link delivers
/// until the machine is done, fails, or the connection stalls. Frames
/// arrive at their departure plus `delay`. The write queue is flushed
/// before every read and holds at most `cap` bytes; skipped garbage is a
/// `resync` event on `scope`.
///
/// Returns how the session ended, with the decoder's resync count, and
/// leaves the accounting and closing the stream to the caller. A queue
/// over `cap`, or `idle` ticks without write progress, is
/// [`EvictReason::Backpressure`]; a write error, EOF, or `idle` ticks
/// without a readable byte is [`EvictReason::Idle`] — the executor's
/// timers fire only when the whole system quiesces, so a *slow* peer is
/// never taken for a *gone* one.
async fn connection<R: Role>(
    handle: &Handle,
    stream: &SimStream,
    machine: &mut Agreement<R>,
    delay: f64,
    idle: u64,
    cap: usize,
    scope: &EventScope,
) -> (SessionOutcome, u64) {
    // The opening frame is dropped here: only its bytes wait for a write.
    let mut wq: VecDeque<u8> = match machine.start() {
        Ok(first) => first.encode().into(),
        Err(err) => return (SessionOutcome::Failed(err), 0),
    };
    stream.depart(machine.clock());
    let mut dec = Decoder::new();
    let end = 'session: loop {
        // Flush before reading: replies already owed take priority, and
        // a queue that cannot drain is the backpressure signal.
        while !wq.is_empty() {
            if wq.len() > cap {
                break 'session SessionOutcome::Evicted(EvictReason::Backpressure);
            }
            wq.make_contiguous();
            let outcome = {
                let (front, _) = wq.as_slices();
                race(stream.write_some(front), handle.sleep(idle)).await
            };
            match outcome {
                Either::A(Ok(n)) => {
                    wq.drain(..n);
                }
                // The peer closed with a reply undelivered: it vanished.
                Either::A(Err(_)) => break 'session SessionOutcome::Evicted(EvictReason::Idle),
                // No write progress for a whole idle window.
                Either::B(()) => break 'session SessionOutcome::Evicted(EvictReason::Backpressure),
            }
        }
        // A flushed queue holds no buffer while the peer computes.
        wq = VecDeque::new();
        if machine.state() == State::Done {
            break SessionOutcome::Done(machine.key().to_vec());
        }
        match race(stream.read_into(&mut dec), handle.sleep(idle)).await {
            // EOF, a torn stream, or silence: the peer is gone.
            Either::A(Ok(0) | Err(_)) | Either::B(()) => {
                break SessionOutcome::Evicted(EvictReason::Idle)
            }
            Either::A(Ok(_)) => {
                if let Err(err) = receive(stream, &mut dec, machine, &mut wq, delay, scope) {
                    break SessionOutcome::Failed(err);
                }
            }
        }
    };
    (end, dec.resyncs())
}

/// Hands every frame decoded so far to the connection's link and feeds
/// the machine what crosses; stops early once it is done. Streams
/// resync instead of NAKing: the decoder already skipped the garbage.
fn receive<R: Role>(
    stream: &SimStream,
    dec: &mut Decoder,
    machine: &mut Agreement<R>,
    wq: &mut VecDeque<u8>,
    delay: f64,
    scope: &EventScope,
) -> Result<(), AgreementError> {
    let retry = machine.config().retry;
    while let Some(item) = dec.next_frame() {
        let Ok(frame) = item else {
            scope.emit("resync");
            continue;
        };
        stream.arrive(frame, delay, &retry, scope)?;
        ready(stream, machine, wq, scope)?;
    }
    stream.release(scope);
    ready(stream, machine, wq, scope)
}

/// Feeds a machine every frame its link has ready, queueing the replies
/// stamped with its clock; stops once the machine is done.
fn ready<R: Role>(
    stream: &SimStream,
    machine: &mut Agreement<R>,
    wq: &mut VecDeque<u8>,
    scope: &EventScope,
) -> Result<(), AgreementError> {
    while machine.state() != State::Done {
        let Some((frame, arrival)) = stream.next_frame(machine.expected_kind(), scope) else {
            break;
        };
        machine.charge(stream.owed());
        for reply in machine.handle(&frame, arrival)? {
            stream.depart(machine.clock());
            wq.extend(reply.encode());
        }
    }
    Ok(())
}

/// Drives the mobile side of one agreement over `stream`: the gateway's
/// connection loop run at the client end, with no write-queue bound and
/// no events, shared by the unit tests and the bench fleets. Frames from
/// the gateway arrive at their departure plus `channel_delay`. The
/// stream is closed however the session ends, so the gateway sees a
/// failed mobile at once rather than after its idle window.
///
/// Like the gateway's connection task, the body is an `async move` block
/// that stores the machine once.
///
/// # Errors
///
/// [`AgreementError::Evicted`] when the gateway closes the stream or
/// goes silent past `idle_ticks`; otherwise whatever the link or the
/// machine reports.
#[allow(clippy::manual_async_fn)] // the block is what stores the machine once
pub fn drive_mobile(
    handle: Handle,
    stream: SimStream,
    mut mobile: MobileAgreement,
    channel_delay: f64,
    idle_ticks: u64,
) -> impl Future<Output = Result<Vec<u8>, AgreementError>> {
    async move {
        let (idle, events) = (idle_ticks, EventScope::disabled());
        let (end, _) =
            connection(&handle, &stream, &mut mobile, channel_delay, idle, usize::MAX, &events)
                .await;
        stream.close();
        match end {
            SessionOutcome::Done(key) => Ok(key),
            SessionOutcome::Failed(err) => Err(err),
            SessionOutcome::Evicted(_) => Err(AgreementError::Evicted),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::stream::StreamFaults;
    use rand::Rng;
    use std::sync::Arc;
    use wavekey_core::agreement::RetryPolicy;
    use wavekey_core::channel::{Delayer, Direction, Dropper, MessageKind, VersionSpoofer};
    use wavekey_core::fault::{FaultKind, FaultPlan, FaultProfile, ScheduledFault};
    use wavekey_core::proto::frame::MAGIC;
    use wavekey_core::proto::{driver, Frame};
    use wavekey_core::PassiveChannel;
    use wavekey_obs::EventLog;

    fn tiny_config() -> AgreementConfig {
        AgreementConfig { use_tiny_group: true, tau: 10.0, bch_t: 5, ..Default::default() }
    }

    fn arq_config() -> GatewayConfig {
        GatewayConfig::new(AgreementConfig { retry: RetryPolicy::arq(), ..tiny_config() })
    }

    /// Mobile/server seed bits for session `conn_id`: close enough to
    /// reconcile (one flipped bit).
    fn seed_pair(conn_id: u64) -> (Vec<bool>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + conn_id);
        let s_m: Vec<bool> = (0..24).map(|_| rng.gen()).collect();
        let mut s_r = s_m.clone();
        let flip = (conn_id as usize) % s_r.len();
        s_r[flip] = !s_r[flip];
        (s_m, s_r)
    }

    fn mobile_rng(conn_id: u64) -> StdRng {
        StdRng::seed_from_u64(0x0B11_E000 + conn_id)
    }

    fn gateway_config() -> GatewayConfig {
        GatewayConfig::new(tiny_config())
    }

    /// Closes the listener once everything else has gone quiet: the
    /// huge sleep only fires at quiesce, after every shorter timer
    /// (idle budgets) has been consumed or cancelled,
    /// which lets the accept loop terminate so `run()` can return.
    fn spawn_closer(exec: &Executor, net: &SimNet) {
        let handle = exec.handle();
        let net = net.clone();
        exec.spawn(async move {
            handle.sleep(1_000_000).await;
            net.close();
        });
    }

    /// Runs `n` clients against a gateway and returns
    /// `(client keys by conn id, gateway)`.
    fn run_fleet(
        config: GatewayConfig,
        obs: Obs,
        n: u64,
        faults: impl Fn(u64) -> StreamFaults,
    ) -> (Vec<(u64, Result<Vec<u8>, AgreementError>)>, Gateway) {
        let gateway = Gateway::new(config.clone(), obs, |conn_id| seed_pair(conn_id).1);
        let out = run_fleet_on(&gateway, &config, &SimNet::new(1 << 16), n, faults);
        (out, gateway)
    }

    /// Drives `n` clients against an already-built gateway over `net`.
    fn run_fleet_on(
        gateway: &Gateway,
        config: &GatewayConfig,
        net: &SimNet,
        n: u64,
        faults: impl Fn(u64) -> StreamFaults,
    ) -> Vec<(u64, Result<Vec<u8>, AgreementError>)> {
        let agreement = config.agreement.clone();
        let idle = config.idle_ticks;
        let mut exec = Executor::new();
        gateway.listen(&exec.handle(), net);
        spawn_closer(&exec, net);
        let results = Rc::new(RefCell::new(Vec::new()));
        for i in 0..n {
            let stream = net.connect_with(faults(i)).unwrap();
            let conn_id = stream.conn_id();
            let (s_m, _) = seed_pair(conn_id);
            let mobile =
                MobileAgreement::new(&s_m, &agreement, mobile_rng(conn_id)).expect("mobile");
            let handle = exec.handle();
            let results = Rc::clone(&results);
            let delay = agreement.channel_delay;
            exec.spawn(async move {
                let got = drive_mobile(handle, stream, mobile, delay, idle).await;
                results.borrow_mut().push((conn_id, got));
            });
        }
        exec.run();
        let mut out = Rc::try_unwrap(results).expect("tasks done").into_inner();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    #[test]
    fn fleet_completes_with_keys_bit_identical_to_lockstep() {
        // Twelve tiny-group sessions, then eight on ristretto255.
        let ristretto = AgreementConfig { use_tiny_group: false, ..tiny_config() };
        for (agreement, n) in [(tiny_config(), 12), (ristretto, 8)] {
            let config = GatewayConfig::new(agreement);
            let (clients, gateway) =
                run_fleet(config.clone(), Obs::disabled(), n, |_| StreamFaults::none());
            assert_eq!(gateway.table().completed(), n);
            assert_eq!(gateway.table().live(), 0);
            assert_eq!(gateway.table().peak_live(), n, "all sessions in flight at once");
            for (conn_id, got) in clients {
                let client_key = got.expect("client key");
                // The gateway's record of the server key matches.
                let Some(SessionOutcome::Done(server_key)) = gateway.table().outcome(conn_id)
                else {
                    panic!("no Done outcome for {conn_id}");
                };
                assert_eq!(client_key, server_key);
                // And both equal the lockstep driver with mirrored seeds/RNGs.
                let (s_m, s_r) = seed_pair(conn_id);
                let mut rng_m = mobile_rng(conn_id);
                let mut rng_r = server_rng(config.server_seed, conn_id);
                let (outcome, _) = driver::drive_lockstep(
                    &s_m,
                    &s_r,
                    &config.agreement,
                    &mut rng_m,
                    &mut rng_r,
                    &mut PassiveChannel,
                    &EventScope::disabled(),
                );
                let outcome = outcome.expect("lockstep");
                assert_eq!(client_key, outcome.key, "conn {conn_id}");
            }
        }
    }

    #[test]
    fn completed_sessions_persist_through_the_sink_and_survive_a_kill() {
        use wavekey_store::{MemVolume, StoreConfig};

        let media = MemVolume::new();
        let store = DurableStore::open(Box::new(media.clone()), StoreConfig::default())
            .expect("open store");
        let tenant = 7;
        let sink = EnrollmentSink::new(Rc::new(RefCell::new(store)), tenant).expect("sink");
        let live = sink.store();

        let config = gateway_config();
        let gateway =
            Gateway::with_sink(config.clone(), Obs::disabled(), |id| seed_pair(id).1, sink);
        let clients =
            run_fleet_on(&gateway, &config, &SimNet::new(1 << 16), 6, |_| StreamFaults::none());
        assert_eq!(gateway.table().completed(), 6);

        // Every completed key is durably bound under the gateway EPC.
        {
            let store = live.borrow();
            for (conn_id, got) in &clients {
                let key = got.as_ref().expect("client key");
                let epc = EnrollmentSink::epc_for(*conn_id);
                assert_eq!(store.peek_key(tenant, epc), Some(key.as_slice()), "conn {conn_id}");
            }
        }

        // Kill the gateway process: a fresh store on the same media
        // replays the journal and serves the same keys.
        let mut back = DurableStore::open(Box::new(media.deep_clone()), StoreConfig::default())
            .expect("reopen");
        assert_eq!(back.stats().replays, 1);
        for (conn_id, got) in &clients {
            let key = got.as_ref().expect("client key");
            let fetched = back
                .key_for(tenant, EnrollmentSink::epc_for(*conn_id))
                .expect("fetch")
                .map(<[u8]>::to_vec);
            assert_eq!(fetched.as_deref(), Some(key.as_slice()), "conn {conn_id}");
        }
    }

    #[test]
    fn session_seed_fn_mirrors_the_sensing_session() {
        use wavekey_core::{Session, SessionConfig, WaveKeyConfig, WaveKeyModels};
        let models = WaveKeyModels::new(12, 3);
        let config = SessionConfig {
            use_tiny_group: true,
            wavekey: WaveKeyConfig { tau: 10.0, ..Default::default() },
            // Models carry no calibrated slots, so the quantized flag
            // exercises the per-model f32 fallback inside the closure.
            quantized_inference: true,
            ..Default::default()
        };
        let mut mirror = Session::new(config.clone(), models.clone(), 42);
        let seed_fn = session_seed_fn(Session::new(config, models, 42));
        for conn_id in 0..2u64 {
            let (_, expect) = mirror.derive_seeds().unwrap();
            assert_eq!(seed_fn(conn_id), expect, "conn {conn_id}");
        }
    }

    #[test]
    fn lossless_stream_faults_change_no_key() {
        let clean = run_fleet(gateway_config(), Obs::disabled(), 8, |_| StreamFaults::none()).0;
        let rough =
            run_fleet(gateway_config(), Obs::disabled(), 8, |i| StreamFaults::lossless(0xF0 + i)).0;
        assert_eq!(clean.len(), rough.len());
        for ((id_a, a), (id_b, b)) in clean.iter().zip(rough.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(
                a.as_ref().expect("clean"),
                b.as_ref().expect("rough"),
                "splits and stalls must not alter keys"
            );
        }
    }

    #[test]
    fn half_open_peer_is_evicted_as_idle() {
        let (obs, _) = Obs::with_memory();
        let config = GatewayConfig { idle_ticks: 8, ..gateway_config() };
        let gateway = Gateway::new(config, obs.clone(), |conn_id| seed_pair(conn_id).1);
        let net = SimNet::new(1 << 16);
        let mut exec = Executor::new();
        gateway.listen(&exec.handle(), &net);
        spawn_closer(&exec, &net);
        // The client connects and then never writes a byte.
        let stream = net.connect().unwrap();
        let conn_id = stream.conn_id();
        exec.run();
        assert!(matches!(
            gateway.table().outcome(conn_id),
            Some(SessionOutcome::Evicted(EvictReason::Idle))
        ));
        assert_eq!(gateway.table().evicted(), 1);
        assert!(obs
            .prometheus_text()
            .contains("wavekey_evictions_total{reason=\"idle\"} 1"));
        drop(stream);
    }

    #[test]
    fn peer_vanishing_mid_protocol_is_evicted_and_client_sees_evicted() {
        let (obs, _) = Obs::with_memory();
        let config = GatewayConfig { idle_ticks: 8, ..gateway_config() };
        let agreement = config.agreement.clone();
        let gateway = Gateway::new(config, obs.clone(), |conn_id| seed_pair(conn_id).1);
        let net = SimNet::new(1 << 16);
        let mut exec = Executor::new();
        gateway.listen(&exec.handle(), &net);
        spawn_closer(&exec, &net);
        let stream = net.connect().unwrap();
        let conn_id = stream.conn_id();
        let (s_m, _) = seed_pair(conn_id);
        let mut mobile = MobileAgreement::new(&s_m, &agreement, mobile_rng(conn_id)).unwrap();
        exec.spawn(async move {
            // Send the opening OT frame, then disappear mid-round.
            let first = mobile.start().expect("start").encode();
            let mut at = 0;
            while at < first.len() {
                at += stream.write_some(&first[at..]).await.expect("write");
            }
            stream.close();
        });
        exec.run();
        assert!(matches!(
            gateway.table().outcome(conn_id),
            Some(SessionOutcome::Evicted(EvictReason::Idle))
        ));
    }

    #[test]
    fn stalled_reader_trips_backpressure_eviction() {
        let (obs, _) = Obs::with_memory();
        // 8-byte pipes: the server's opening frame cannot fit, and the
        // client never reads, so the write queue stops draining.
        let config = GatewayConfig { idle_ticks: 6, ..gateway_config() };
        let gateway = Gateway::new(config, obs.clone(), |conn_id| seed_pair(conn_id).1);
        let net = SimNet::new(8);
        let mut exec = Executor::new();
        gateway.listen(&exec.handle(), &net);
        spawn_closer(&exec, &net);
        let stream = net.connect().unwrap();
        let conn_id = stream.conn_id();
        exec.run();
        assert!(matches!(
            gateway.table().outcome(conn_id),
            Some(SessionOutcome::Evicted(EvictReason::Backpressure))
        ));
        assert!(obs
            .prometheus_text()
            .contains("wavekey_evictions_total{reason=\"backpressure\"} 1"));
        drop(stream);
    }

    #[test]
    fn oversized_write_queue_evicts_for_backpressure() {
        let (obs, _) = Obs::with_memory();
        // A queue bound smaller than the opening frame: overflow path.
        let config = GatewayConfig { write_queue_cap: 4, ..gateway_config() };
        let gateway = Gateway::new(config, obs.clone(), |conn_id| seed_pair(conn_id).1);
        let net = SimNet::new(1 << 16);
        let mut exec = Executor::new();
        gateway.listen(&exec.handle(), &net);
        spawn_closer(&exec, &net);
        let stream = net.connect().unwrap();
        let conn_id = stream.conn_id();
        exec.run();
        assert!(matches!(
            gateway.table().outcome(conn_id),
            Some(SessionOutcome::Evicted(EvictReason::Backpressure))
        ));
        drop(stream);
    }

    #[test]
    fn shutdown_rejects_queued_connections_and_drains_in_flight() {
        let (obs, _) = Obs::with_memory();
        let config = gateway_config();
        let agreement = config.agreement.clone();
        let idle = config.idle_ticks;
        let gateway = Gateway::new(config, obs.clone(), |conn_id| seed_pair(conn_id).1);
        let net = SimNet::new(1 << 16);
        let mut exec = Executor::new();
        gateway.listen(&exec.handle(), &net);

        // Three in-flight clients, connected before the executor runs —
        // the accept loop drains them on its first poll.
        let done = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let stream = net.connect().unwrap();
            let conn_id = stream.conn_id();
            let (s_m, _) = seed_pair(conn_id);
            let mobile = MobileAgreement::new(&s_m, &agreement, mobile_rng(conn_id)).unwrap();
            let handle = exec.handle();
            let done = Rc::clone(&done);
            let delay = agreement.channel_delay;
            exec.spawn(async move {
                let got = drive_mobile(handle, stream, mobile, delay, idle).await;
                done.borrow_mut().push(got.is_ok());
            });
        }
        // A task scheduled after the clients: it queues one more
        // connection and immediately shuts the gateway down, so the late
        // connection is still unaccepted when shutdown lands.
        let late_id = Rc::new(RefCell::new(0u64));
        {
            let gateway = gateway.clone();
            let net = net.clone();
            let done = Rc::clone(&done);
            let late_id = Rc::clone(&late_id);
            exec.spawn(async move {
                let late = net.connect().expect("pre-shutdown connect");
                *late_id.borrow_mut() = late.conn_id();
                gateway.shutdown(&net);
                // Connects after shutdown are refused outright.
                done.borrow_mut().push(net.connect().is_err());
                // The rejected stream reads EOF without a single frame.
                let mut buf = Vec::new();
                let n = late.read_into(&mut buf).await.expect("eof");
                done.borrow_mut().push(n == 0);
            });
        }
        exec.run();
        // In-flight sessions completed despite shutdown; the queued one
        // was rejected, never entering the table.
        assert_eq!(done.borrow().len(), 5);
        assert!(done.borrow().iter().all(|ok| *ok));
        assert_eq!(gateway.table().completed(), 3);
        assert_eq!(gateway.rejected(), 1);
        assert!(gateway.table().outcome(*late_id.borrow()).is_none());
        assert!(obs
            .prometheus_text()
            .contains("wavekey_evictions_total{reason=\"shutdown\"} 1"));
    }

    #[test]
    fn per_connection_timelines_are_deterministic() {
        let run = || {
            let log = Arc::new(EventLog::new(256));
            let obs = Obs::new(log.clone());
            let (_, _gw) = run_fleet(gateway_config(), obs, 4, |_| StreamFaults::none());
            log.timelines_jsonl()
        };
        let a = run();
        assert!(a.contains("\"actor\":\"gateway\"") || a.contains("gateway"));
        assert_eq!(a, run(), "same fleet, same causal timelines");
    }

    /// Bytes ahead of the first frame are skipped, not fatal: the session
    /// completes, and the gateway counts the skip once in its exporter and
    /// once on the connection's timeline.
    #[test]
    fn leading_garbage_is_one_resync_and_the_session_completes() {
        let log = Arc::new(EventLog::new(256));
        let obs = Obs::new(log.clone());
        let config = gateway_config();
        let (delay, idle) = (config.agreement.channel_delay, config.idle_ticks);
        let gateway = Gateway::new(config.clone(), obs.clone(), |id| seed_pair(id).1);
        let net = SimNet::new(1 << 16);
        let mut exec = Executor::new();
        gateway.listen(&exec.handle(), &net);
        spawn_closer(&exec, &net);
        let stream = net.connect().unwrap();
        let id = stream.conn_id();
        let mobile =
            MobileAgreement::new(&seed_pair(id).0, &config.agreement, mobile_rng(id)).unwrap();
        let got = Rc::new(RefCell::new(None));
        {
            let (handle, got) = (exec.handle(), Rc::clone(&got));
            exec.spawn(async move {
                let junk = [0x00, 0x13, 0x37, 0xFF];
                assert!(!junk.contains(&MAGIC[0]), "no byte may start a frame");
                let mut at = 0;
                while at < junk.len() {
                    at += stream.write_some(&junk[at..]).await.expect("write");
                }
                *got.borrow_mut() = Some(drive_mobile(handle, stream, mobile, delay, idle).await);
            });
        }
        exec.run();
        let key = got.borrow_mut().take().expect("client ran").expect("client key");
        assert!(matches!(gateway.table().outcome(id), Some(SessionOutcome::Done(k)) if k == key));
        let text = obs.prometheus_text();
        assert!(text.contains("gateway_frame_resyncs 1\n"), "{text}");
        let resyncs = log.timeline(id).iter().filter(|e| e.kind == "resync").count();
        assert_eq!(resyncs, 1, "{}", log.timelines_jsonl());
    }

    /// One session over `net`: what the client got, the table's outcome,
    /// and the frames the link resent.
    fn run_one(
        config: GatewayConfig,
        net: SimNet,
    ) -> (Result<Vec<u8>, AgreementError>, Option<SessionOutcome>, u64) {
        let gateway = Gateway::new(config.clone(), Obs::disabled(), |id| seed_pair(id).1);
        let (id, got) = run_fleet_on(&gateway, &config, &net, 1, |_| StreamFaults::none())
            .pop()
            .expect("one client");
        (got, gateway.table().outcome(id), net.retransmits())
    }

    fn scripted(direction: Direction, kind: MessageKind, fault: FaultKind) -> SimNet {
        let plan =
            FaultPlan::scripted(1, vec![ScheduledFault { direction, kind, occurrence: 0, fault }]);
        SimNet::with_adversary(1 << 16, plan)
    }

    /// Every scripted single fault recovers to the key a fault-free run
    /// establishes: recovery consumes no RNG, so it cannot steer the
    /// protocol.
    #[test]
    fn scripted_faults_recover_to_the_fault_free_key() {
        let (baseline, _, resent) = run_one(arq_config(), SimNet::new(1 << 16));
        let baseline = baseline.expect("fault-free key");
        assert_eq!(resent, 0, "no faults, no retransmits");
        let scenarios = [
            ("drop", Direction::ServerToMobile, MessageKind::OtA, FaultKind::Drop),
            ("duplicate", Direction::MobileToServer, MessageKind::OtB, FaultKind::Duplicate),
            ("reorder", Direction::ServerToMobile, MessageKind::OtA, FaultKind::Reorder),
            ("truncate", Direction::ServerToMobile, MessageKind::OtA, FaultKind::Truncate),
            ("corrupt", Direction::MobileToServer, MessageKind::OtB, FaultKind::Corrupt),
            ("delay", Direction::MobileToServer, MessageKind::OtE, FaultKind::Delay),
        ];
        for (name, direction, kind, fault) in scenarios {
            let (got, table, resent) = run_one(arq_config(), scripted(direction, kind, fault));
            let key = got.unwrap_or_else(|e| panic!("{name}: session failed: {e}"));
            assert_eq!(key, baseline, "{name}: key diverged");
            assert!(
                matches!(&table, Some(SessionOutcome::Done(k)) if *k == baseline),
                "{name}: {table:?}"
            );
            let needs_resend =
                matches!(fault, FaultKind::Drop | FaultKind::Truncate | FaultKind::Corrupt);
            assert_eq!(resent > 0, needs_resend, "{name}: {resent} retransmits");
        }
    }

    /// The drop that recovery survives is fatal without a retry policy.
    #[test]
    fn dropped_frame_without_retry_policy_is_fatal() {
        let net = scripted(Direction::ServerToMobile, MessageKind::OtA, FaultKind::Drop);
        let (got, table, resent) = run_one(gateway_config(), net);
        assert!(got.is_err(), "drop without retry must be fatal, got {got:?}");
        assert!(!matches!(table, Some(SessionOutcome::Done(_))), "{table:?}");
        assert_eq!(resent, 0, "no retry policy, no retransmits");
    }

    /// Retransmission backoff is charged against the `2 + τ` fence: a
    /// retry whose backoff exceeds the slack arrives too late.
    #[test]
    fn retransmission_backoff_is_charged_against_the_deadline() {
        let retry = RetryPolicy { max_retries: 3, backoff_base_s: 20.0, backoff_factor: 1.0 };
        let config = GatewayConfig::new(AgreementConfig { retry, ..tiny_config() });
        // M_{A,R} is the mobile's budgeted message; τ = 10 s < one backoff.
        let net = scripted(Direction::ServerToMobile, MessageKind::OtA, FaultKind::Drop);
        let (got, _, _) = run_one(config, net);
        assert_eq!(got, Err(AgreementError::Timeout(MessageKind::OtA)));
    }

    /// Without faults the retry policy changes nothing: keys are
    /// bit-identical with and without it, and nothing is resent.
    #[test]
    fn fault_free_runs_are_bit_identical_with_and_without_retry() {
        let plain = run_fleet(gateway_config(), Obs::disabled(), 4, |_| StreamFaults::none()).0;
        let net = SimNet::new(1 << 16);
        let config = arq_config();
        let gateway = Gateway::new(config.clone(), Obs::disabled(), |id| seed_pair(id).1);
        let arq = run_fleet_on(&gateway, &config, &net, 4, |_| StreamFaults::none());
        assert_eq!(plain, arq);
        assert!(arq.iter().all(|(_, got)| got.is_ok()));
        assert_eq!(net.retransmits(), 0);
    }

    /// Same seeds, same fault plan: byte-identical causal timelines,
    /// carrying the server's transitions and the link's deliveries.
    #[test]
    fn causal_timelines_are_deterministic_under_replayed_faults() {
        let run = || {
            let log = Arc::new(EventLog::new(256));
            let config = arq_config();
            let gateway = Gateway::new(config.clone(), Obs::new(log.clone()), |id| seed_pair(id).1);
            let plan = FaultPlan::new(42, FaultProfile::reference());
            let net = SimNet::with_adversary(1 << 16, plan);
            run_fleet_on(&gateway, &config, &net, 6, |_| StreamFaults::none());
            log.timelines_jsonl()
        };
        let first = run();
        assert!(first.contains("\"kind\":\"state\""), "machine transitions present");
        assert!(first.contains("\"kind\":\"deliver\""), "link deliveries present");
        assert_eq!(first, run(), "timelines byte-identical under a fixed seed");
    }

    /// A re-versioned frame is refused by the codec: no key on either
    /// side, with or without NAK recovery.
    #[test]
    fn spoofed_versions_never_yield_a_key() {
        for config in [gateway_config(), arq_config()] {
            let spoof = VersionSpoofer { target: MessageKind::OtB, version: 0x7f };
            let (got, table, _) = run_one(config, SimNet::with_adversary(1 << 16, spoof));
            assert!(matches!(got, Err(AgreementError::Wire(_))), "{got:?}");
            assert!(!matches!(table, Some(SessionOutcome::Done(_))), "{table:?}");
        }
    }

    /// A mobile that fails mid-session closes its stream, so its gateway
    /// session turns terminal at once rather than when the gateway's
    /// idle window runs out. The spoofed `M_B,R` fails the mobile in the
    /// read batch that also queued its own `M_B`, which it never sends.
    #[test]
    fn failed_mobile_ends_its_gateway_session_before_the_idle_window() {
        let config = gateway_config();
        let (delay, idle) = (config.agreement.channel_delay, config.idle_ticks);
        let spoof = VersionSpoofer { target: MessageKind::OtB, version: 0x7f };
        let net = SimNet::with_adversary(1 << 16, spoof);
        let gateway = Gateway::new(config.clone(), Obs::disabled(), |id| seed_pair(id).1);
        let mut exec = Executor::new();
        gateway.listen(&exec.handle(), &net);
        spawn_closer(&exec, &net);
        let stream = net.connect().unwrap();
        let id = stream.conn_id();
        let mobile =
            MobileAgreement::new(&seed_pair(id).0, &config.agreement, mobile_rng(id)).unwrap();
        let got = Rc::new(RefCell::new(None));
        {
            let (handle, got) = (exec.handle(), Rc::clone(&got));
            exec.spawn(async move {
                *got.borrow_mut() = Some(drive_mobile(handle, stream, mobile, delay, idle).await);
            });
        }
        // Reads the table once per logical tick until the session ends.
        let ended_at = Rc::new(Cell::new(None));
        {
            let (handle, gateway) = (exec.handle(), gateway.clone());
            let ended_at = Rc::clone(&ended_at);
            exec.spawn(async move {
                while gateway.table().outcome(id).is_none() {
                    handle.sleep(1).await;
                }
                ended_at.set(Some(handle.now()));
            });
        }
        exec.run();
        assert!(matches!(*got.borrow(), Some(Err(AgreementError::Wire(_)))), "{:?}", got.borrow());
        let ended = ended_at.get().expect("the gateway session ended");
        assert!(ended < idle, "gateway session ended at tick {ended}, idle window {idle}");
        assert!(!matches!(gateway.table().outcome(id), Some(SessionOutcome::Done(_))));
    }

    /// A seed source that yields no bits cannot start a session: the
    /// gateway rejects the connection and the table never sees it.
    #[test]
    fn bad_seeds_are_rejected_without_a_session() {
        assert!(matches!(
            MobileAgreement::new(&[], &tiny_config(), mobile_rng(1)),
            Err(AgreementError::BadSeeds)
        ));
        let config = gateway_config();
        let gateway = Gateway::new(config.clone(), Obs::disabled(), |_| Vec::new());
        let clients = run_fleet_on(&gateway, &config, &SimNet::new(1 << 16), 1, |_| {
            StreamFaults::none()
        });
        assert_eq!(gateway.rejected(), 1);
        assert_eq!(gateway.table().peak_live(), 0);
        assert!(gateway.table().outcome(clients[0].0).is_none());
        assert_eq!(clients[0].1, Err(AgreementError::Evicted));
    }

    /// Protocol failures land in the labeled failure family; a jammed
    /// round is an idle eviction.
    #[test]
    fn failure_labels_reach_the_exporter() {
        let (obs, _) = Obs::with_memory();
        let config = gateway_config();
        // The server's seed is the mobile's complement: far past the BCH
        // radius, so reconciliation fails on a clean channel.
        let gateway = Gateway::new(config.clone(), obs.clone(), |id| {
            seed_pair(id).0.iter().map(|b| !b).collect()
        });
        run_fleet_on(&gateway, &config, &SimNet::new(1 << 16), 1, |_| StreamFaults::none());
        assert!(matches!(
            gateway.table().outcome(1),
            Some(SessionOutcome::Failed(AgreementError::ReconciliationFailed))
        ));
        let jammed = Gateway::new(config.clone(), obs.clone(), |id| seed_pair(id).1);
        let net = SimNet::with_adversary(1 << 16, Dropper { target: MessageKind::OtE });
        run_fleet_on(&jammed, &config, &net, 1, |_| StreamFaults::none());
        assert!(matches!(
            jammed.table().outcome(1),
            Some(SessionOutcome::Evicted(EvictReason::Idle))
        ));
        let text = obs.prometheus_text();
        let label = "wavekey_failures_total{label=\"reconciliation_failed\"} 1";
        assert!(text.contains(label), "{text}");
        assert!(text.contains("wavekey_evictions_total{reason=\"idle\"} 1"), "{text}");
        assert!(text.contains("gateway_sessions_failed 1"), "{text}");
    }

    /// A relay that holds `M_B` past `2 + τ` trips the server's fence.
    #[test]
    fn relayed_ot_b_past_the_fence_fails_at_the_gateway() {
        let config = gateway_config();
        let relay = Delayer { target: Some(MessageKind::OtB), extra: config.agreement.tau + 1.0 };
        let (got, table, _) = run_one(config, SimNet::with_adversary(1 << 16, relay));
        let late = AgreementError::Timeout(MessageKind::OtB);
        assert!(matches!(&table, Some(SessionOutcome::Failed(e)) if *e == late), "{table:?}");
        assert!(got.is_err());
    }

    /// A mobile that computes `M_B` for τ + 1 s stamps it that late, and
    /// the server's fence refuses it: arrivals carry the sender's clock,
    /// not the receiver's.
    #[test]
    fn slow_mobile_past_the_fence_fails_at_the_gateway() {
        let config = gateway_config();
        let (delay, tau) = (config.agreement.channel_delay, config.agreement.tau);
        let gateway = Gateway::new(config.clone(), Obs::disabled(), |id| seed_pair(id).1);
        let net = SimNet::new(1 << 16);
        let mut exec = Executor::new();
        gateway.listen(&exec.handle(), &net);
        spawn_closer(&exec, &net);
        let stream = net.connect().unwrap();
        let id = stream.conn_id();
        let mut mobile =
            MobileAgreement::new(&seed_pair(id).0, &config.agreement, mobile_rng(id)).unwrap();
        exec.spawn(async move {
            async fn send(stream: &SimStream, frame: &Frame, clock: f64) {
                stream.depart(clock);
                let bytes = frame.encode();
                let mut at = 0;
                while at < bytes.len() {
                    at += stream.write_some(&bytes[at..]).await.expect("write");
                }
            }
            let ma = mobile.start().unwrap();
            send(&stream, &ma, mobile.clock()).await;
            let mut dec = Decoder::new();
            let frame = loop {
                if let Some(Ok(frame)) = dec.next_frame() {
                    break frame;
                }
                stream.read_into(&mut dec).await.expect("read");
            };
            let events = EventScope::disabled();
            stream.arrive(frame, delay, &RetryPolicy::none(), &events).unwrap();
            let (frame, arrival) = stream.next_frame(mobile.expected_kind(), &events).unwrap();
            let mb = mobile.handle(&frame, arrival).unwrap().pop().unwrap();
            mobile.charge(tau + 1.0);
            send(&stream, &mb, mobile.clock()).await;
        });
        exec.run();
        assert!(matches!(
            gateway.table().outcome(id),
            Some(SessionOutcome::Failed(AgreementError::Timeout(MessageKind::OtB)))
        ));
    }

    /// The gateway twin of the lockstep `deadline_defeats_slow_relays`: a
    /// relay holding `M_A` for 0.5 s against τ = 0.2 s times the mobile
    /// out.
    #[test]
    fn slow_relays_on_ot_a_time_out_at_the_mobile() {
        let agreement = AgreementConfig { use_tiny_group: true, tau: 0.2, ..Default::default() };
        let relay = Delayer { target: Some(MessageKind::OtA), extra: 0.5 };
        let (got, _, _) =
            run_one(GatewayConfig::new(agreement), SimNet::with_adversary(1 << 16, relay));
        assert_eq!(got, Err(AgreementError::Timeout(MessageKind::OtA)));
    }
}
