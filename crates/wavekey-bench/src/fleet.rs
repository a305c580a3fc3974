//! The one gateway fleet driver of the bench binaries: `gateway_soak`,
//! `fault_soak` and `load_gen` each connect a batch of mobiles to a
//! [`Gateway`] over one [`SimNet`] and drive them on one executor.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use wavekey_core::agreement::AgreementError;
use wavekey_core::MobileAgreement;
use wavekey_gateway::{
    drive_mobile, Executor, Gateway, GatewayConfig, SessionOutcome, SimNet, StreamFaults,
};

/// What the client side of one fleet run saw.
pub struct Fleet {
    /// Per session, in conn-id order: the conn id, seconds from the start
    /// of the run to the session's end, and what the mobile got.
    pub sessions: Vec<(u64, f64, Result<Vec<u8>, AgreementError>)>,
    /// Wall time of the whole run.
    pub wall_s: f64,
}

impl Fleet {
    /// Sessions whose mobile holds a key.
    pub fn successes(&self) -> u64 {
        self.sessions.iter().filter(|(_, _, got)| got.is_ok()).count() as u64
    }

    /// Sessions whose mobile holds a key the gateway's table disagrees
    /// with, or never recorded — the zero-tolerance count.
    pub fn divergent(&self, gateway: &Gateway) -> u64 {
        self.sessions
            .iter()
            .filter(|(conn_id, _, got)| match got {
                Ok(key) => !matches!(
                    gateway.table().outcome(*conn_id),
                    Some(SessionOutcome::Done(server_key)) if server_key == *key
                ),
                Err(_) => false,
            })
            .count() as u64
    }
}

/// Connects `n` mobiles to `gateway` over a fresh `net` and drives every
/// session to its end. All connects land in the listener backlog before
/// the executor starts, so the accept loop admits all `n` before any
/// completes: the fleet has `n` sessions in flight at once. The `i`-th
/// connection (0-based) gets `faults(i)`, and `mobile(conn_id)` builds
/// its machine (conn ids run `1..=n`). A timer that fires only once
/// everything else has quiesced closes the listener, ending the run.
pub fn run_fleet(
    gateway: &Gateway,
    config: &GatewayConfig,
    net: &SimNet,
    n: u64,
    mobile: impl Fn(u64) -> MobileAgreement,
    faults: impl Fn(u64) -> StreamFaults,
) -> Fleet {
    let mut exec = Executor::new();
    gateway.listen(&exec.handle(), net);
    {
        let handle = exec.handle();
        let net = net.clone();
        exec.spawn(async move {
            handle.sleep(1_000_000).await;
            net.close();
        });
    }
    let (delay, idle) = (config.agreement.channel_delay, config.idle_ticks);
    let sessions = Rc::new(RefCell::new(Vec::with_capacity(n as usize)));
    let t0 = Instant::now();
    for i in 0..n {
        let stream = net.connect_with(faults(i)).expect("listener open");
        let conn_id = stream.conn_id();
        // Boxed until the task's first poll moves it into the session:
        // a machine the task captured by value would stay in its state
        // beside the copy `drive_mobile` runs.
        let machine = Box::new(mobile(conn_id));
        let handle = exec.handle();
        let sessions = Rc::clone(&sessions);
        exec.spawn(async move {
            let got = drive_mobile(handle, stream, *machine, delay, idle).await;
            sessions.borrow_mut().push((conn_id, t0.elapsed().as_secs_f64(), got));
        });
    }
    exec.run();
    let wall_s = t0.elapsed().as_secs_f64();
    let mut sessions = Rc::try_unwrap(sessions).expect("all client tasks done").into_inner();
    sessions.sort_by_key(|(id, _, _)| *id);
    Fleet { sessions, wall_s }
}
