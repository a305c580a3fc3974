//! A dependency-free, single-threaded, deterministic async executor.
//!
//! The gateway needs real event-loop mechanics — readiness, wakers,
//! partial IO, timers — without pulling a runtime the offline build
//! cannot fetch. This executor provides exactly the subset the gateway
//! uses, with one extra property production runtimes do not promise:
//! **determinism**. Tasks run from a FIFO ready queue on one thread, a
//! waker enqueues its task at most once per poll, and time is a logical
//! tick counter that only advances when every task is blocked — so a
//! given program always interleaves identically, and the soak gate can
//! assert bit-identical keys against the lockstep driver.
//!
//! Timers are the quiesce points: [`Handle::sleep`] registers a wakeup
//! at `now + ticks`, and when the ready queue drains the executor jumps
//! `now` to the earliest pending deadline. An idle timeout therefore
//! fires exactly when the system has nothing better to do — which is
//! the moment a stalled connection is provably stalled and safe to
//! evict.

use std::cell::RefCell;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// The waker-facing half of the executor: ready queue, tick clock, and
/// timer heap. Kept `Send + Sync` (everything under one mutex) so the
/// hand-rolled wakers honor the `Waker` thread-safety contract even
/// though this executor never leaves its thread.
#[derive(Debug, Default)]
struct ReadyShared {
    state: Mutex<ReadyState>,
}

#[derive(Debug, Default)]
struct ReadyState {
    ready: VecDeque<u64>,
    /// Tasks already in `ready` (a waker fires at most one enqueue).
    queued: HashSet<u64>,
    /// Logical now, in ticks.
    now: u64,
    /// Min-heap of (due_tick, timer_seq); cancelled seqs are skipped.
    timer_heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    timers: HashMap<u64, Waker>,
    next_timer: u64,
}

/// One spawned task, with the one waker every poll of it hands out.
struct Task {
    future: Pin<Box<dyn Future<Output = ()>>>,
    waker: Waker,
}

/// The single-threaded deterministic executor.
pub struct Executor {
    tasks: HashMap<u64, Task>,
    shared: Arc<ReadyShared>,
    inbox: Rc<RefCell<Vec<Pin<Box<dyn Future<Output = ()>>>>>>,
    next_task: u64,
    polls: u64,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::new()
    }
}

impl Executor {
    /// A fresh executor at tick 0 with no tasks.
    pub fn new() -> Executor {
        Executor {
            tasks: HashMap::new(),
            shared: Arc::new(ReadyShared::default()),
            inbox: Rc::new(RefCell::new(Vec::new())),
            next_task: 1,
            polls: 0,
        }
    }

    /// A cloneable handle for spawning tasks and creating timers —
    /// usable both outside [`Executor::run`] and from inside tasks.
    pub fn handle(&self) -> Handle {
        Handle { shared: Arc::clone(&self.shared), inbox: Rc::clone(&self.inbox) }
    }

    /// Spawns a task (queued behind everything already ready).
    pub fn spawn(&self, future: impl Future<Output = ()> + 'static) {
        self.inbox.borrow_mut().push(Box::pin(future));
    }

    /// Total task polls performed (scheduling-cost diagnostic).
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.shared.state.lock().unwrap().now
    }

    /// Runs until every task has completed. Returns the number of tasks
    /// that ran to completion.
    ///
    /// # Panics
    ///
    /// Panics on deadlock — tasks remain but none is ready and no timer
    /// is pending. A deterministic system should never reach that state;
    /// failing loudly beats hanging the soak.
    pub fn run(&mut self) -> usize {
        let mut completed = 0usize;
        loop {
            self.drain_inbox();
            let next = {
                let mut st = self.shared.state.lock().unwrap();
                match st.ready.pop_front() {
                    Some(id) => {
                        st.queued.remove(&id);
                        Some(id)
                    }
                    None => None,
                }
            };
            let Some(id) = next else {
                if self.tasks.is_empty() && self.inbox.borrow().is_empty() {
                    return completed;
                }
                if !self.fire_due_timers() {
                    panic!(
                        "executor deadlock: {} tasks blocked with no pending timer",
                        self.tasks.len()
                    );
                }
                continue;
            };
            let Some(task) = self.tasks.get_mut(&id) else {
                continue; // completed task woken by a stale timer
            };
            let mut cx = Context::from_waker(&task.waker);
            self.polls += 1;
            if task.future.as_mut().poll(&mut cx).is_ready() {
                self.tasks.remove(&id);
                completed += 1;
            }
        }
    }

    /// Moves newly spawned futures into the task map and marks them
    /// ready, preserving spawn order.
    fn drain_inbox(&mut self) {
        let mut inbox = self.inbox.borrow_mut();
        if inbox.is_empty() {
            return;
        }
        let mut st = self.shared.state.lock().unwrap();
        for future in inbox.drain(..) {
            let id = self.next_task;
            self.next_task += 1;
            let waker = task_waker(id, Arc::clone(&self.shared));
            self.tasks.insert(id, Task { future, waker });
            st.ready.push_back(id);
            st.queued.insert(id);
        }
    }

    /// Advances `now` to the earliest pending timer and wakes everything
    /// due. Returns false when no timer is pending.
    fn fire_due_timers(&self) -> bool {
        let due: Vec<Waker> = {
            let mut st = self.shared.state.lock().unwrap();
            // Skip cancelled timers (dropped Sleep futures).
            let target = loop {
                match st.timer_heap.peek() {
                    Some(&std::cmp::Reverse((due, seq))) => {
                        if st.timers.contains_key(&seq) {
                            break due;
                        }
                        st.timer_heap.pop();
                    }
                    None => return false,
                }
            };
            st.now = st.now.max(target);
            let now = st.now;
            let mut woken = Vec::new();
            while let Some(&std::cmp::Reverse((due, seq))) = st.timer_heap.peek() {
                if due > now {
                    break;
                }
                st.timer_heap.pop();
                if let Some(waker) = st.timers.remove(&seq) {
                    woken.push(waker);
                }
            }
            woken
        };
        for waker in &due {
            waker.wake_by_ref();
        }
        !due.is_empty()
    }
}

/// Cloneable spawn/timer handle onto an [`Executor`].
#[derive(Clone)]
pub struct Handle {
    shared: Arc<ReadyShared>,
    inbox: Rc<RefCell<Vec<Pin<Box<dyn Future<Output = ()>>>>>>,
}

impl Handle {
    /// Spawns a task onto the executor this handle came from.
    pub fn spawn(&self, future: impl Future<Output = ()> + 'static) {
        self.inbox.borrow_mut().push(Box::pin(future));
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.shared.state.lock().unwrap().now
    }

    /// A future that resolves once the logical clock has advanced
    /// `ticks` past its creation — i.e. after the system quiesced that
    /// many times with this sleeper as (one of) the earliest deadline.
    pub fn sleep(&self, ticks: u64) -> Sleep {
        Sleep {
            shared: Arc::clone(&self.shared),
            due: None,
            delay: ticks,
            seq: None,
        }
    }
}

/// Timer future returned by [`Handle::sleep`]; deregisters itself on
/// drop so abandoned timers (the losing arm of a [`race`]) cannot
/// accumulate in the heap.
pub struct Sleep {
    shared: Arc<ReadyShared>,
    due: Option<u64>,
    delay: u64,
    seq: Option<u64>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut st = this.shared.state.lock().unwrap();
        let due = *this.due.get_or_insert(st.now + this.delay);
        if st.now >= due {
            if let Some(seq) = this.seq.take() {
                st.timers.remove(&seq);
            }
            return Poll::Ready(());
        }
        match this.seq {
            Some(seq) => {
                // Re-registration with a fresh waker (e.g. after a move
                // between combinators) must replace the stale one.
                st.timers.insert(seq, cx.waker().clone());
            }
            None => {
                let seq = st.next_timer;
                st.next_timer += 1;
                this.seq = Some(seq);
                // Cancelled timers leave their heap entries behind; once
                // they outnumber the live ones, drop them, so the heap
                // holds O(live timers) rather than one entry per wait
                // since the last quiesce.
                if st.timer_heap.len() > 2 * st.timers.len() + 64 {
                    let ReadyState { timer_heap, timers, .. } = &mut *st;
                    timer_heap.retain(|std::cmp::Reverse((_, seq))| timers.contains_key(seq));
                }
                st.timer_heap.push(std::cmp::Reverse((due, seq)));
                st.timers.insert(seq, cx.waker().clone());
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(seq) = self.seq.take() {
            if let Ok(mut st) = self.shared.state.lock() {
                st.timers.remove(&seq);
            }
        }
    }
}

/// Which arm of a [`race`] finished first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future won.
    A(A),
    /// The second future won.
    B(B),
}

/// Polls two futures concurrently, resolving with the first to finish
/// (the loser is dropped, cancelling any timer it held). `A` is polled
/// first each round, so ties resolve deterministically to `A`. Both arms
/// are `Unpin` (the stream and timer futures are), so the race holds
/// them inline rather than boxing each.
pub fn race<FA, FB>(a: FA, b: FB) -> Race<FA, FB>
where
    FA: Future + Unpin,
    FB: Future + Unpin,
{
    Race { a: Some(a), b: Some(b) }
}

/// Future returned by [`race`].
pub struct Race<FA: Future + Unpin, FB: Future + Unpin> {
    a: Option<FA>,
    b: Option<FB>,
}

impl<FA: Future + Unpin, FB: Future + Unpin> Future for Race<FA, FB> {
    type Output = Either<FA::Output, FB::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Some(a) = this.a.as_mut() {
            if let Poll::Ready(out) = Pin::new(a).poll(cx) {
                this.a = None;
                this.b = None;
                return Poll::Ready(Either::A(out));
            }
        }
        if let Some(b) = this.b.as_mut() {
            if let Poll::Ready(out) = Pin::new(b).poll(cx) {
                this.a = None;
                this.b = None;
                return Poll::Ready(Either::B(out));
            }
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------- wakers

struct WakeData {
    id: u64,
    shared: Arc<ReadyShared>,
}

impl std::task::Wake for WakeData {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let mut st = self.shared.state.lock().unwrap();
        if st.queued.insert(self.id) {
            st.ready.push_back(self.id);
        }
    }
}

fn task_waker(id: u64, shared: Arc<ReadyShared>) -> Waker {
    Waker::from(Arc::new(WakeData { id, shared }))
}

/// Yields once: goes to the back of the ready queue and resumes on the
/// next scheduling round (cooperative fairness inside long loops).
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            return Poll::Ready(());
        }
        self.yielded = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn tasks_run_in_spawn_order_and_complete() {
        let mut exec = Executor::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = Rc::clone(&log);
            exec.spawn(async move {
                log.borrow_mut().push(i);
            });
        }
        assert_eq!(exec.run(), 5);
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn yield_now_interleaves_round_robin() {
        let mut exec = Executor::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let log = Rc::clone(&log);
            exec.spawn(async move {
                for _ in 0..2 {
                    log.borrow_mut().push(i);
                    yield_now().await;
                }
            });
        }
        exec.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn sleep_advances_logical_time_at_quiesce() {
        let mut exec = Executor::new();
        let handle = exec.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (name, ticks) in [("late", 10u64), ("early", 3), ("mid", 7)] {
            let handle = handle.clone();
            let order = Rc::clone(&order);
            exec.spawn(async move {
                handle.sleep(ticks).await;
                order.borrow_mut().push(name);
            });
        }
        exec.run();
        assert_eq!(*order.borrow(), vec!["early", "mid", "late"]);
        assert_eq!(exec.now(), 10);
    }

    #[test]
    fn nested_spawn_from_inside_a_task_runs() {
        let mut exec = Executor::new();
        let handle = exec.handle();
        let hit = Rc::new(Cell::new(false));
        {
            let hit = Rc::clone(&hit);
            exec.spawn(async move {
                let inner_hit = Rc::clone(&hit);
                handle.spawn(async move {
                    inner_hit.set(true);
                });
            });
        }
        assert_eq!(exec.run(), 2);
        assert!(hit.get());
    }

    #[test]
    fn race_prefers_first_ready_arm_and_cancels_loser_timer() {
        let mut exec = Executor::new();
        let handle = exec.handle();
        let outcome = Rc::new(RefCell::new(None));
        {
            let handle = handle.clone();
            let outcome = Rc::clone(&outcome);
            exec.spawn(async move {
                // The 2-tick sleeper beats the 50-tick sleeper; the loser
                // must not hold the clock hostage afterwards.
                let won = race(handle.sleep(50), handle.sleep(2)).await;
                *outcome.borrow_mut() = Some(matches!(won, Either::B(())));
            });
        }
        exec.run();
        assert_eq!(*outcome.borrow(), Some(true));
        // The losing 50-tick timer was cancelled on drop: time stopped at 2.
        assert_eq!(exec.now(), 2);
    }

    #[test]
    fn two_identical_programs_schedule_identically() {
        // Determinism: same spawns → same poll count, same tick, same log.
        let run_once = || {
            let mut exec = Executor::new();
            let handle = exec.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..4u64 {
                let handle = handle.clone();
                let log = Rc::clone(&log);
                exec.spawn(async move {
                    handle.sleep(i % 3).await;
                    log.borrow_mut().push(i);
                    yield_now().await;
                    log.borrow_mut().push(i + 10);
                });
            }
            exec.run();
            let events = log.borrow().clone();
            (exec.polls(), exec.now(), events)
        };
        assert_eq!(run_once(), run_once());
    }
}
