//! The single-threaded cooperative executor driving the virtual clock.
//!
//! Simulated processes are ordinary Rust futures. The executor interleaves
//! two activities until quiescence (or a deadline):
//!
//! 1. poll every task whose waker has fired,
//! 2. when no task is runnable, advance the virtual clock to the earliest
//!    pending timer and fire every timer due at that instant.
//!
//! Timers due at one instant fire in scheduling order. Each woken task
//! is polled right after its timer fires, before the next one fires;
//! tasks those polls wake follow, in wake order. Every run is therefore
//! fully deterministic.
//!
//! A timer may also carry a [`Tick`]: a step the executor runs itself at
//! the timer's place in that order, without polling any task. A process
//! whose next steps are plain bookkeeping hands them to a tick chain and
//! sleeps until a tick wakes it.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::time::{SimSpan, SimTime};

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Identifier of a task inside one [`Simulation`].
type TaskId = usize;

/// A step run by the executor itself when its timer fires (see
/// [`SimHandle::schedule_tick`]).
pub trait Tick {
    /// Runs the step due at `now`, exactly where a task woken by this
    /// timer would be polled. Returns the instant of the chain's next
    /// step (armed as if by that poll), or `None` to end the chain. It
    /// may wake tasks but must not arm timers: its return value is its
    /// only timer.
    fn tick(&self, now: SimTime) -> Option<SimTime>;
}

/// What a timer does when it fires.
enum Fire {
    Wake(Waker),
    Tick(Rc<dyn Tick>),
}

/// A timer entry in the event heap.
struct TimerEntry {
    at: SimTime,
    seq: u64,
    fire: Fire,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl TimerEntry {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Executor work counters (see [`Simulation::counters`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Task polls.
    pub polls: u64,
    /// Timers fired, ticks included.
    pub timer_fires: u64,
    /// Of those, ticks run without polling a task.
    pub ticks: u64,
    /// Waker invocations.
    pub wakes: u64,
    /// Tasks spawned.
    pub spawns: u64,
}

/// Run queues shared by every task waker. Kept apart from [`SimCore`]
/// so wakers parked in the timer heap do not point back at it.
#[derive(Default)]
struct Sched {
    /// Tasks woken while polling (FIFO).
    ready: RefCell<VecDeque<TaskId>>,
    /// Tasks woken by the timer being fired right now; polled before
    /// anything in `ready`.
    fired: RefCell<VecDeque<TaskId>>,
    firing: Cell<bool>,
    wakes: Cell<u64>,
}

impl Sched {
    fn wake(&self, id: TaskId) {
        self.wakes.set(self.wakes.get() + 1);
        if self.firing.get() {
            self.fired.borrow_mut().push_back(id);
        } else {
            self.ready.borrow_mut().push_back(id);
        }
    }
}

/// Shared core of one simulation: clock, event heap, spawn queue, RNG.
pub(crate) struct SimCore {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
    /// Futures spawned while the executor is running; drained by the driver.
    spawn_queue: RefCell<Vec<BoxFuture>>,
    sched: Rc<Sched>,
    /// Set while a [`Tick`] runs.
    ticking: Cell<bool>,
    rng: RefCell<StdRng>,
}

impl SimCore {
    pub(crate) fn now(&self) -> SimTime {
        self.now.get()
    }

    fn next_seq(&self) -> u64 {
        debug_assert!(!self.ticking.get(), "a tick must not arm timers");
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        seq
    }

    fn push_timer(&self, at: SimTime, fire: Fire) {
        debug_assert!(at >= self.now.get(), "cannot schedule in the past");
        let seq = self.next_seq();
        self.timers
            .borrow_mut()
            .push(Reverse(TimerEntry { at, seq, fire }));
    }

    /// Registers `waker` to fire at instant `at`.
    pub(crate) fn schedule_wake(&self, at: SimTime, waker: Waker) {
        self.push_timer(at, Fire::Wake(waker));
    }
}

/// The waker of one task: pushes its id on the shared run queues.
struct TaskWaker {
    id: TaskId,
    sched: Rc<Sched>,
}

// The simulation is single-threaded: a task waker is created, cloned,
// woken and dropped only on the thread that owns its `Simulation`, so
// an `Rc` stands behind the `RawWaker` (the executor never hands a waker
// to another thread, and simulated processes have no threads).
const VTABLE: RawWakerVTable =
    RawWakerVTable::new(waker_clone, waker_wake, waker_wake_by_ref, waker_drop);

unsafe fn waker_clone(p: *const ()) -> RawWaker {
    // SAFETY: `p` came from `Rc::into_raw` of a live `TaskWaker`.
    unsafe { Rc::increment_strong_count(p as *const TaskWaker) };
    RawWaker::new(p, &VTABLE)
}

unsafe fn waker_wake(p: *const ()) {
    // SAFETY: consumes the reference this waker owned.
    let w = unsafe { Rc::from_raw(p as *const TaskWaker) };
    w.sched.wake(w.id);
}

unsafe fn waker_wake_by_ref(p: *const ()) {
    // SAFETY: `p` points at a live `TaskWaker` borrowed for the call.
    let w = unsafe { &*(p as *const TaskWaker) };
    w.sched.wake(w.id);
}

unsafe fn waker_drop(p: *const ()) {
    // SAFETY: releases the reference this waker owned.
    drop(unsafe { Rc::from_raw(p as *const TaskWaker) });
}

fn task_waker(id: TaskId, sched: &Rc<Sched>) -> Waker {
    let w = Rc::new(TaskWaker {
        id,
        sched: Rc::clone(sched),
    });
    // SAFETY: the vtable functions uphold the `RawWaker` contract for a
    // pointer produced by `Rc::into_raw` (see `VTABLE`).
    unsafe { Waker::from_raw(RawWaker::new(Rc::into_raw(w) as *const (), &VTABLE)) }
}

/// A slot in the task slab.
enum Slot {
    /// Task present and possibly runnable.
    Occupied(BoxFuture),
    /// Task currently taken out for polling (guards against re-entrancy).
    Polling,
    /// Free slot (future finished).
    Vacant,
}

/// Owner and driver of one simulation run.
///
/// The `Simulation` owns all task futures, so dropping it drops every
/// simulated process (futures hold only [`SimHandle`]s back into the
/// core, which does not own tasks — no reference cycles, no leaks).
pub struct Simulation {
    core: Rc<SimCore>,
    tasks: Vec<Slot>,
    /// One waker per task slot, reused by every task the slot holds.
    wakers: Vec<Waker>,
    free: Vec<TaskId>,
    live: usize,
    polls: u64,
    timer_fires: u64,
    ticks: u64,
    spawns: u64,
}

impl Simulation {
    /// Creates a fresh simulation whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Simulation {
            core: Rc::new(SimCore {
                now: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                timers: RefCell::new(BinaryHeap::new()),
                spawn_queue: RefCell::new(Vec::new()),
                sched: Rc::new(Sched::default()),
                ticking: Cell::new(false),
                rng: RefCell::new(StdRng::seed_from_u64(seed)),
            }),
            tasks: Vec::new(),
            wakers: Vec::new(),
            free: Vec::new(),
            live: 0,
            polls: 0,
            timer_fires: 0,
            ticks: 0,
            spawns: 0,
        }
    }

    /// A cheap clonable handle for use inside simulated processes.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            core: Rc::clone(&self.core),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Spawns a simulated process. It first runs when the executor next
    /// gets control.
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'static) {
        self.core.spawn_queue.borrow_mut().push(Box::pin(fut));
    }

    /// Number of live (unfinished) tasks.
    pub fn live_tasks(&self) -> usize {
        self.live + self.core.spawn_queue.borrow().len()
    }

    /// Work the executor has done so far: task polls, timers fired
    /// (ticks among them), waker invocations and spawns. Plain counters,
    /// read for free.
    pub fn counters(&self) -> ExecCounters {
        ExecCounters {
            polls: self.polls,
            timer_fires: self.timer_fires,
            ticks: self.ticks,
            wakes: self.core.sched.wakes.get(),
            spawns: self.spawns,
        }
    }

    fn admit_spawned(&mut self) {
        if self.core.spawn_queue.borrow().is_empty() {
            return;
        }
        let spawned: Vec<BoxFuture> = self.core.spawn_queue.borrow_mut().drain(..).collect();
        for fut in spawned {
            let id = match self.free.pop() {
                Some(id) => {
                    self.tasks[id] = Slot::Occupied(fut);
                    id
                }
                None => {
                    self.tasks.push(Slot::Occupied(fut));
                    self.wakers
                        .push(task_waker(self.tasks.len() - 1, &self.core.sched));
                    self.tasks.len() - 1
                }
            };
            self.live += 1;
            self.spawns += 1;
            self.core.sched.ready.borrow_mut().push_back(id);
        }
    }

    fn poll_task(&mut self, id: TaskId) {
        let mut fut = match std::mem::replace(&mut self.tasks[id], Slot::Polling) {
            Slot::Occupied(f) => f,
            // Spurious wake for a finished or already-running task.
            other => {
                self.tasks[id] = other;
                return;
            }
        };
        self.polls += 1;
        let mut cx = Context::from_waker(&self.wakers[id]);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.tasks[id] = Slot::Vacant;
                self.free.push(id);
                self.live -= 1;
            }
            Poll::Pending => {
                self.tasks[id] = Slot::Occupied(fut);
            }
        }
    }

    /// Polls every runnable task (including freshly spawned ones) until no
    /// task is runnable at the current instant.
    fn drain_runnable(&mut self) {
        loop {
            self.admit_spawned();
            let next = self.core.sched.ready.borrow_mut().pop_front();
            let Some(id) = next else {
                if self.core.spawn_queue.borrow().is_empty() {
                    return;
                }
                continue;
            };
            self.poll_task(id);
        }
    }

    /// Advances the clock to the next timer and fires every timer due at
    /// that instant, in order, polling each woken task (or running each
    /// tick) before the next timer fires; tasks those polls wake wait in
    /// the run queue. Timers armed during this round for this very
    /// instant fire in a later round, after that queue drains.
    /// Returns `false` when no timers remain.
    fn advance(&mut self) -> bool {
        let Some(at) = self.core.timers.borrow().peek().map(|Reverse(e)| e.at) else {
            return false;
        };
        debug_assert!(at >= self.core.now());
        self.core.now.set(at);
        let round = self.core.seq.get();
        loop {
            // The next timer of this round, if any. A tick runs while its
            // entry stays on top of the heap, and is re-armed in place.
            let next = match self.core.timers.borrow().peek() {
                Some(Reverse(e)) if e.at == at && e.seq < round => match &e.fire {
                    Fire::Tick(tick) => Some(Some(Rc::clone(tick))),
                    Fire::Wake(_) => Some(None),
                },
                _ => None,
            };
            let Some(tick) = next else {
                return true;
            };
            self.timer_fires += 1;
            let sched = &self.core.sched;
            sched.firing.set(true);
            match tick {
                Some(tick) => {
                    self.ticks += 1;
                    self.core.ticking.set(true);
                    let again = tick.tick(at);
                    self.core.ticking.set(false);
                    let mut timers = self.core.timers.borrow_mut();
                    match again {
                        Some(next) => {
                            let seq = self.core.next_seq();
                            let mut top = timers.peek_mut().expect("the tick's own entry");
                            top.0.at = next;
                            top.0.seq = seq;
                        }
                        None => {
                            timers.pop();
                        }
                    }
                }
                None => {
                    let popped = self.core.timers.borrow_mut().pop();
                    if let Some(Reverse(TimerEntry {
                        fire: Fire::Wake(waker),
                        ..
                    })) = popped
                    {
                        waker.wake();
                    }
                }
            }
            sched.firing.set(false);
            loop {
                let id = self.core.sched.fired.borrow_mut().pop_front();
                let Some(id) = id else {
                    break;
                };
                self.poll_task(id);
                self.admit_spawned();
            }
        }
    }

    /// Runs until no task is runnable and no timer is pending.
    ///
    /// Tasks blocked on synchronisation that will never fire simply remain
    /// suspended; they do not prevent `run` from returning.
    pub fn run(&mut self) {
        loop {
            self.drain_runnable();
            if !self.advance() {
                return;
            }
        }
    }

    /// Runs until the virtual clock reaches `deadline` (processing every
    /// event strictly before or at it), then sets the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            self.drain_runnable();
            let next = self.core.timers.borrow().peek().map(|Reverse(e)| e.at);
            match next {
                Some(at) if at <= deadline => {
                    self.advance();
                }
                _ => break,
            }
        }
        if self.core.now() < deadline {
            self.core.now.set(deadline);
        }
    }

    /// Convenience: `run_until(now + span)`.
    pub fn run_for(&mut self, span: SimSpan) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }
}

/// Clonable handle to the simulation, used inside simulated processes.
#[derive(Clone)]
pub struct SimHandle {
    core: Rc<SimCore>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Suspends the calling process for `span` of virtual time.
    pub fn sleep(&self, span: SimSpan) -> Sleep {
        Sleep {
            core: Rc::clone(&self.core),
            deadline: self.core.now() + span,
            registered: false,
        }
    }

    /// Suspends until the virtual clock reaches `deadline` (immediately
    /// ready if the deadline has passed).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            core: Rc::clone(&self.core),
            deadline,
            registered: false,
        }
    }

    /// Spawns another simulated process.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        self.core.spawn_queue.borrow_mut().push(Box::pin(fut));
    }

    /// Draws from the simulation's master RNG (deterministic per seed).
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.core.rng.borrow_mut())
    }

    /// Registers `waker` to fire at `at`; used by custom futures
    /// (resources, timeouts) built on top of the executor.
    pub fn schedule_wake(&self, at: SimTime, waker: Waker) {
        self.core.schedule_wake(at, waker);
    }

    /// Arms a tick chain: at `at`, in this timer's place among the
    /// timers due then, the executor runs `tick` itself (no task is
    /// polled), and re-arms it at the instant it returns — as a task
    /// polled there would arm its next timer. A chain thus stands in,
    /// event for event, for a task looping on `sleep`; the tick ends it
    /// by returning `None`, typically after waking that task.
    pub fn schedule_tick(&self, at: SimTime, tick: Rc<dyn Tick>) {
        self.core.push_timer(at, Fire::Tick(tick));
    }
}

/// Future returned by [`SimHandle::sleep`].
pub struct Sleep {
    core: Rc<SimCore>,
    deadline: SimTime,
    registered: bool,
}

impl Sleep {
    /// The instant this sleep completes.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.core.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            self.core.schedule_wake(self.deadline, cx.waker().clone());
            self.registered = true;
        }
        Poll::Pending
    }
}

/// Yields once, letting every other runnable task at this instant proceed.
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
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let seen = Rc::new(Cell::new(0u64));
        let s = Rc::clone(&seen);
        sim.spawn(async move {
            assert_eq!(h.now(), SimTime::ZERO);
            h.sleep(SimSpan::micros(7)).await;
            s.set(h.now().as_nanos());
        });
        sim.run();
        assert_eq!(seen.get(), 7_000);
    }

    #[test]
    fn same_instant_events_fire_in_schedule_order() {
        let mut sim = Simulation::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let h = sim.handle();
            let ord = Rc::clone(&order);
            sim.spawn(async move {
                h.sleep(SimSpan::nanos(10)).await;
                ord.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_spawn_runs() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let hit = Rc::new(Cell::new(false));
        let flag = Rc::clone(&hit);
        sim.spawn(async move {
            let inner_flag = Rc::clone(&flag);
            let h2 = h.clone();
            h.spawn(async move {
                h2.sleep(SimSpan::nanos(1)).await;
                inner_flag.set(true);
            });
        });
        sim.run();
        assert!(hit.get());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let count = Rc::new(Cell::new(0u32));
        let c = Rc::clone(&count);
        sim.spawn(async move {
            loop {
                h.sleep(SimSpan::micros(1)).await;
                c.set(c.get() + 1);
            }
        });
        sim.run_until(SimTime::from_nanos(10_500));
        assert_eq!(count.get(), 10);
        assert_eq!(sim.now().as_nanos(), 10_500);
        // The looping task is still alive, merely suspended.
        assert_eq!(sim.live_tasks(), 1);
    }

    #[test]
    fn run_for_is_relative() {
        let mut sim = Simulation::new(0);
        sim.run_for(SimSpan::micros(3));
        assert_eq!(sim.now().as_nanos(), 3_000);
        sim.run_for(SimSpan::micros(2));
        assert_eq!(sim.now().as_nanos(), 5_000);
    }

    #[test]
    fn yield_now_interleaves_fairly() {
        let mut sim = Simulation::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2 {
            let ord = Rc::clone(&order);
            sim.spawn(async move {
                for step in 0..3 {
                    ord.borrow_mut().push((i, step));
                    yield_now().await;
                }
            });
        }
        sim.run();
        assert_eq!(
            *order.borrow(),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
    }

    #[test]
    fn finished_tasks_free_their_slots() {
        let mut sim = Simulation::new(0);
        for _ in 0..100 {
            sim.spawn(async {});
        }
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        // Slots are recycled for later spawns.
        for _ in 0..100 {
            sim.spawn(async {});
        }
        sim.run();
        assert!(sim.tasks.len() <= 100);
    }

    #[test]
    fn sleep_zero_completes_immediately() {
        let mut sim = Simulation::new(0);
        let h = sim.handle();
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            h.sleep(SimSpan::ZERO).await;
            d.set(true);
        });
        sim.run();
        assert!(done.get());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        use rand::Rng;
        let draw = |seed| {
            let sim = Simulation::new(seed);
            sim.handle().with_rng(|r| r.gen::<u64>())
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    /// Completes on its second poll, leaving its waker where a test can
    /// arm a timer with it.
    struct Park {
        slot: Rc<RefCell<Option<Waker>>>,
        parked: bool,
    }

    impl Future for Park {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.parked {
                return Poll::Ready(());
            }
            self.parked = true;
            *self.slot.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    /// Spawns a task that sleeps from `start` to `at` then logs `name`.
    fn sleeper(
        sim: &mut Simulation,
        log: &Rc<RefCell<Vec<&'static str>>>,
        name: &'static str,
        start: u64,
        at: u64,
    ) {
        let h = sim.handle();
        let log = Rc::clone(log);
        sim.spawn(async move {
            h.sleep_until(SimTime::from_nanos(start)).await;
            h.sleep_until(SimTime::from_nanos(at)).await;
            log.borrow_mut().push(name);
        });
    }

    #[test]
    fn timers_fire_in_arming_order_within_an_instant() {
        // Armed at 0, 5, 0, 3 for instant 10: they fire in arming order.
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        sleeper(&mut sim, &log, "a", 0, 10);
        sleeper(&mut sim, &log, "b", 5, 10);
        sleeper(&mut sim, &log, "c", 0, 10);
        sleeper(&mut sim, &log, "d", 3, 10);
        sleeper(&mut sim, &log, "early", 0, 9);
        sim.run();
        assert_eq!(*log.borrow(), vec!["early", "a", "c", "d", "b"]);
        let c = sim.counters();
        assert_eq!(c.spawns, 5);
        // One timer per sleep that does not start at its deadline.
        assert_eq!(c.timer_fires, 7);
        assert_eq!(c.polls, 5 + 7);
        assert_eq!(c.wakes, c.timer_fires);
    }

    /// A process stepping through `durations` in a loop: as a task that
    /// sleeps, or as a tick chain. Logs `(name, instant)` at every step.
    struct Stepper {
        name: &'static str,
        durations: Vec<u64>,
        k: Cell<usize>,
        log: Rc<RefCell<Vec<(&'static str, u64)>>>,
    }

    impl Stepper {
        fn step(&self, now: u64) -> u64 {
            self.log.borrow_mut().push((self.name, now));
            let d = self.durations[self.k.get() % self.durations.len()];
            self.k.set(self.k.get() + 1);
            d
        }
    }

    impl Tick for Stepper {
        fn tick(&self, now: SimTime) -> Option<SimTime> {
            let d = self.step(now.as_nanos());
            Some(now + SimSpan::nanos(d))
        }
    }

    fn stepper_run(as_ticks: bool) -> (Vec<(&'static str, u64)>, ExecCounters) {
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        // Two processes in lockstep with the one under test (same
        // durations, same start) and one that keeps landing on its
        // instants with other durations: every tie is exercised.
        let specs = [
            ("a", vec![30, 30, 100]),
            ("b", vec![30, 30, 100]),
            ("c", vec![30, 30, 100]),
            ("d", vec![20, 40, 70]),
        ];
        for (name, durations) in specs {
            let st = Rc::new(Stepper {
                name,
                durations,
                k: Cell::new(0),
                log: Rc::clone(&log),
            });
            let h = sim.handle();
            if as_ticks && name == "b" {
                sim.spawn(async move {
                    let d = st.step(h.now().as_nanos());
                    h.schedule_tick(h.now() + SimSpan::nanos(d), st);
                });
            } else {
                sim.spawn(async move {
                    loop {
                        let d = st.step(h.now().as_nanos());
                        h.sleep(SimSpan::nanos(d)).await;
                    }
                });
            }
        }
        sim.run_for(SimSpan::nanos(2_000));
        let log = log.borrow().clone();
        (log, sim.counters())
    }

    #[test]
    fn tick_chain_replays_a_sleeping_task_event_for_event() {
        let (tasks, by_task) = stepper_run(false);
        let (ticks, by_tick) = stepper_run(true);
        assert_eq!(tasks, ticks);
        // Same events, fewer polls: every step of "b" became a tick.
        assert_eq!(by_task.timer_fires, by_tick.timer_fires);
        let b_steps = tasks.iter().filter(|e| e.0 == "b").count() as u64;
        assert_eq!(by_tick.ticks, b_steps - 1);
        assert_eq!(by_task.polls - by_tick.polls, b_steps - 1);
    }

    #[test]
    fn tick_wakes_its_task_in_the_timers_place() {
        // The tick at 10 (armed at 0) wakes a parked task: it runs right
        // there, after the timer armed before it and before the one
        // armed after it, not behind them in the run queue.
        struct WakeAt(RefCell<Option<Waker>>);
        impl Tick for WakeAt {
            fn tick(&self, _: SimTime) -> Option<SimTime> {
                self.0.borrow_mut().take().expect("parked").wake();
                None
            }
        }
        let mut sim = Simulation::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        sleeper(&mut sim, &log, "before", 0, 10);
        let slot = Rc::new(RefCell::new(None));
        let (h, s) = (sim.handle(), Rc::clone(&slot));
        let l = Rc::clone(&log);
        sim.spawn(async move {
            let park = Park {
                slot: Rc::clone(&s),
                parked: false,
            };
            let tick = Rc::new(WakeAt(RefCell::new(None)));
            h.schedule_tick(SimTime::from_nanos(10), tick.clone());
            let mut park = Box::pin(park);
            std::future::poll_fn(|cx| {
                let p = park.as_mut().poll(cx);
                if tick.0.borrow().is_none() {
                    *tick.0.borrow_mut() = s.borrow_mut().take();
                }
                p
            })
            .await;
            l.borrow_mut().push("woken");
        });
        sleeper(&mut sim, &log, "after", 5, 10);
        sim.run();
        assert_eq!(*log.borrow(), vec!["before", "woken", "after"]);
        assert_eq!(sim.counters().ticks, 1);
    }
}
