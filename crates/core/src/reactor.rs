//! The multi-core serve reactor.
//!
//! One event-driven abstraction replaces the three serve-loop variants
//! that grew up in layers (the classic scan, the PR 5 admission-swept
//! batch drain, the PR 7 per-tenant poller groups): a [`Reactor`] owns
//! N simulated cores, each core owns a disjoint set of connections
//! (EREW partitioning — keys hash to a partition, a partition's
//! connections pin to its core, so the common case touches no shared
//! state), and every core runs the same scan built from one shared
//! slot-service epilogue.
//!
//! # Steal protocol
//!
//! Pure EREW collapses under zipfian skew: the core owning the hot
//! keys saturates while its siblings idle, and closed-loop clients
//! throttle the whole fleet down to the hot core's capacity. With
//! `steal` enabled, a core whose own scan found nothing goes hunting:
//!
//! 1. **Run-queue steal** — take admitted-but-unprocessed requests
//!    from a sibling's run queue (thief end, most recently admitted
//!    first), paying the modeled cross-core [`Handoff`] cost per
//!    request.
//! 2. **Ring steal** — claim one of a loaded sibling's connections
//!    (connection-granularity claims keep the per-connection in-flight
//!    marker single-writer) and drain its request ring in place, still
//!    applying the *owner's* admission policy and serving with the
//!    owner's handler (its partition of the store).
//!
//! Claims are plain `Cell<bool>` test-and-sets: the simulation is
//! cooperatively single-threaded, so any code run between awaits is
//! atomic, and a claimed connection is simply skipped by whoever
//! arrives second. A stolen request is answered into the slot captured
//! at pickup (the reply marker is restored with no intervening await),
//! so owner and thief can answer different slots of one connection
//! concurrently without crossing responses.
//!
//! # Fidelity
//!
//! A single-core reactor replays the legacy loops *event for event*:
//! the scan orders, crash checks, busy charges, credit stamps, and
//! idle backoff are reproduced exactly, and the byte-identity proptest
//! (`tests/reactor_identity.rs`) pins registry CSV, trace, and payload
//! equality against a frozen copy of the pre-refactor loops.
//!
//! # Idle chains
//!
//! A Plain-policy core without stealing does not replay its empty
//! checks as polls: each check is handed to an idle chain, a `Tick` the
//! executor steps in the core's place (same timer positions, same
//! charges), and the core wakes only where a step needs it — a new
//! request or a crash (DESIGN §17.1).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use rfp_rnic::{CoreMeter, Handoff, RunQueue, ThreadCtx};
use rfp_simnet::{
    CoreLoad, CoreSkewReport, Counter, FlightRecorder, Gauge, MetricsRegistry, Severity, SimSpan,
    SimTime, Tick,
};

use crate::conn::RfpServerConn;
use crate::header::RespStatus;
use crate::overload::{admit, credits_for, Admission, OverloadConfig, TenantCredits};
use crate::server::{IdlePolicy, RfpHandler};

/// Which admission discipline every core of the reactor runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReactorPolicy {
    /// Serve every request in scan order (no admission).
    Plain,
    /// Two-phase scan with the global queue bound and credit
    /// advertisement of the overload layer (PR 5).
    Overload,
    /// Two-phase scan with per-tenant credit domains (PR 7).
    Tenant,
}

/// Reactor-wide knobs.
pub struct ReactorConfig {
    /// Lets idle cores steal work from loaded siblings.
    pub steal: bool,
    /// Modeled cost of moving one request across cores (charged as
    /// busy time on the thief per stolen request).
    pub handoff_cost: SimSpan,
    /// Most requests one steal pass takes before re-scanning its own
    /// partition (keeps a thief from starving its own ring).
    pub steal_batch: usize,
    /// Per-core gauges/counters land here when set
    /// (`serve.core.<i>.steals`, `serve.core.<i>.queue_depth`, …).
    pub registry: Option<MetricsRegistry>,
    /// Steal events are recorded here when set.
    pub recorder: Option<FlightRecorder>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            steal: false,
            handoff_cost: SimSpan::nanos(150),
            steal_batch: 4,
            registry: None,
            recorder: None,
        }
    }
}

/// One core's share of the server: its thread, the connections whose
/// keys it owns, and the handler closed over its store partition.
pub struct CoreSpec {
    /// The simulated core.
    pub thread: Rc<ThreadCtx>,
    /// Connections pinned to this core (EREW: their clients only send
    /// keys this core's partition owns).
    pub conns: Vec<Rc<RfpServerConn>>,
    /// The application handler for this core's partition.
    pub handler: Box<dyn RfpHandler>,
}

/// A connection plus its steal claim. The claim makes each connection
/// single-poller at any instant: owner and thief test-and-set it
/// around every visit, and whoever arrives second skips.
struct OwnedConn {
    conn: Rc<RfpServerConn>,
    claimed: Cell<bool>,
}

impl OwnedConn {
    fn try_claim(&self) -> bool {
        if self.claimed.get() {
            return false;
        }
        self.claimed.set(true);
        true
    }

    fn release(&self) {
        self.claimed.set(false);
    }
}

/// One admitted request parked on a run queue: everything needed to
/// service it later (or from another core) without re-touching the
/// connection's in-flight marker.
struct Ready {
    /// Core that owns the request's connection (indexes `Shared::cores`).
    owner: usize,
    /// Connection index within the owner's set.
    conn: usize,
    /// Ring slot captured at pickup — the reply target.
    slot: usize,
    /// Tenant stamp captured at pickup (tenant policy only).
    tenant: Option<u32>,
    /// Request payload.
    req: Vec<u8>,
}

struct CoreGauges {
    steals: Rc<Counter>,
    queue_depth: Rc<Gauge>,
    served: Rc<Counter>,
    handoff_ns: Rc<Counter>,
}

struct CoreState {
    thread: Rc<ThreadCtx>,
    conns: Vec<OwnedConn>,
    handler: RefCell<Box<dyn RfpHandler>>,
    ov: OverloadConfig,
    runq: RunQueue<Ready>,
    credits: TenantCredits,
    /// Credits advertised on responses, from the previous scan's
    /// backlog (overload policy).
    advertised: Cell<u16>,
    /// Requests the most recent scan found pending — the backlog
    /// signal thieves use to pick a loaded victim.
    last_backlog: Cell<usize>,
    meter: CoreMeter,
    /// Requests this core executed on siblings' behalf.
    steals: Cell<u64>,
    /// Requests siblings took from this core's domain.
    stolen: Cell<u64>,
    gauges: Option<CoreGauges>,
    /// Steps this core's idle checks without polling it (Plain policy
    /// without stealing; see [`IdleRun`]).
    ticker: Option<Rc<IdleTicker>>,
    /// The idle stretch in progress, if the core is parked on one.
    idle: RefCell<Option<IdleRun>>,
}

/// A Plain core's position in its scan: about to pay check `j` of the
/// `tries`-th `try_recv` of its visit to connection `ci`.
#[derive(Copy, Clone, Debug, Default)]
struct Cursor {
    ci: usize,
    tries: usize,
    j: usize,
}

/// Running totals of one scan.
#[derive(Copy, Clone, Debug, Default)]
struct ScanState {
    served_any: bool,
    backlog: usize,
}

/// Where a core picks up when its idle chain hands control back.
#[derive(Copy, Clone, Debug)]
enum Paced {
    /// Read `slot`: its check is paid and the header holds a new request.
    Read(usize),
    /// Start the `try_recv` at the cursor: a crash check is due and the
    /// machine is down.
    Resume,
    /// Go back to the loop top, likewise for its crash check.
    Restart,
}

/// The step an idle chain's pending timer completes.
#[derive(Copy, Clone, Debug)]
enum IdleStep {
    /// The header read of a paid check.
    Check(usize),
    /// The end of the idle spin after an empty scan.
    Spin,
    /// The end of a backoff nap.
    Nap,
}

/// An idle stretch of a Plain core, stepped by the executor (DESIGN
/// §17.1). While its checks find nothing, a serve core's
/// loop only moves cursors, books counters and sleeps; the executor runs
/// those steps as [`Tick`]s — each at the timer position the stepped
/// core's own timer would have, with the same charges — and wakes the
/// core only for the step that needs it.
struct IdleRun {
    step: IdleStep,
    cur: Cursor,
    scan: ScanState,
    nap: SimSpan,
    waker: Option<Waker>,
    resume: Option<Paced>,
}

impl IdleRun {
    /// Ends the chain: the core resumes at `at`, polled in this tick's
    /// place.
    fn hand_back(&mut self, at: Paced) -> Option<SimTime> {
        self.resume = Some(at);
        if let Some(waker) = self.waker.take() {
            waker.wake();
        }
        None
    }
}

/// The tick of one core's idle chain.
struct IdleTicker {
    shared: Weak<Shared>,
    core: usize,
}

impl Tick for IdleTicker {
    fn tick(&self, now: SimTime) -> Option<SimTime> {
        self.shared.upgrade()?.idle_tick(self.core, now)
    }
}

/// Parks a core until its idle chain hands control back.
struct IdleWait<'a> {
    core: &'a CoreState,
}

impl Future for IdleWait<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut idle = self.core.idle.borrow_mut();
        let run = idle.as_mut().expect("an idle run is in progress");
        if run.resume.is_some() {
            return Poll::Ready(());
        }
        run.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl CoreState {
    /// The scan-end stamp of `core_loop`: the backlog the scan found.
    fn note_backlog(&self, backlog: usize) {
        self.last_backlog.set(backlog);
        if let Some(g) = &self.gauges {
            g.queue_depth.set(backlog as i64);
        }
    }

    /// Pays the check at the cursor as `try_recv` does (moves the
    /// connection's scan cursor, books the check CPU) and returns when
    /// its header read is due.
    fn arm_check(&self, run: &mut IdleRun, now: SimTime) -> SimTime {
        let conn = &self.conns[run.cur.ci].conn;
        let slot = conn.next_slot();
        let span = self.thread.cpu_span(conn.check_cpu());
        self.thread.note_busy(span);
        run.step = IdleStep::Check(slot);
        now + span
    }

    /// A `try_recv` starts at the cursor: crash check, one scan visit,
    /// first check.
    fn start_try(&self, run: &mut IdleRun, now: SimTime) -> Option<SimTime> {
        if self.thread.machine().faults().is_crashed() {
            return run.hand_back(Paced::Resume);
        }
        self.conns[run.cur.ci].conn.note_visit();
        Some(self.arm_check(run, now))
    }

    /// The top of `core_loop`: crash check, then a fresh scan.
    fn loop_top(&self, run: &mut IdleRun, now: SimTime) -> Option<SimTime> {
        if self.thread.machine().faults().is_crashed() {
            return run.hand_back(Paced::Restart);
        }
        run.cur = Cursor::default();
        run.scan = ScanState::default();
        self.start_try(run, now)
    }
}

#[derive(Default)]
struct ScanOutcome {
    served_any: bool,
    crashed: bool,
    backlog: usize,
    /// The scan ended at the loop top (an idle chain passed its end).
    restart: bool,
}

/// What to do with a request a thief pulled off a victim's ring,
/// decided synchronously by the victim's admission policy.
enum Verdict {
    Run(Option<u16>),
    Reject(RespStatus, u16),
}

struct Shared {
    policy: ReactorPolicy,
    idle: IdlePolicy,
    steal: bool,
    steal_batch: usize,
    recorder: Option<FlightRecorder>,
    handoff: Handoff,
    cores: Vec<CoreState>,
}

/// N cores serving one RFP server's connections (see module docs).
///
/// Construct with [`Reactor::new`], then spawn [`Reactor::run_core`]
/// once per core. The handle stays usable afterwards for telemetry
/// ([`Reactor::skew_report`] and the per-core accessors).
pub struct Reactor {
    shared: Rc<Shared>,
}

impl Reactor {
    /// Builds a reactor over `cores`, all running `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty, any core owns no connections, or
    /// `policy` needs overload control that a core's connections do
    /// not carry.
    pub fn new(
        cfg: ReactorConfig,
        cores: Vec<CoreSpec>,
        idle: impl Into<IdlePolicy>,
        policy: ReactorPolicy,
    ) -> Reactor {
        assert!(!cores.is_empty(), "reactor with no cores");
        let idle: IdlePolicy = idle.into();
        let states: Vec<CoreState> = cores
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                assert!(
                    !spec.conns.is_empty(),
                    "reactor core {i} owns no connections"
                );
                let ov: OverloadConfig = spec.conns[0].overload().clone();
                match policy {
                    ReactorPolicy::Plain => {}
                    ReactorPolicy::Overload => debug_assert!(
                        spec.conns.iter().all(|c| c.overload().enabled),
                        "mixed overload configs on one server thread"
                    ),
                    ReactorPolicy::Tenant => assert!(
                        ov.enabled,
                        "serve_loop_tenant requires overload control (per-tenant credit domains)"
                    ),
                }
                let gauges = cfg.registry.as_ref().map(|reg| CoreGauges {
                    steals: reg.counter(&format!("serve.core.{i}.steals")),
                    queue_depth: reg.gauge(&format!("serve.core.{i}.queue_depth")),
                    served: reg.counter(&format!("serve.core.{i}.served")),
                    handoff_ns: reg.counter(&format!("serve.core.{i}.handoff_ns")),
                });
                CoreState {
                    thread: spec.thread,
                    conns: spec
                        .conns
                        .into_iter()
                        .map(|conn| OwnedConn {
                            conn,
                            claimed: Cell::new(false),
                        })
                        .collect(),
                    handler: RefCell::new(spec.handler),
                    advertised: Cell::new(ov.credit_max),
                    ov,
                    runq: RunQueue::new(),
                    credits: TenantCredits::new(),
                    last_backlog: Cell::new(0),
                    meter: CoreMeter::new(),
                    steals: Cell::new(0),
                    stolen: Cell::new(0),
                    gauges,
                    ticker: None,
                    idle: RefCell::new(None),
                }
            })
            .collect();
        Reactor {
            shared: Rc::new_cyclic(|shared: &Weak<Shared>| {
                let mut states = states;
                if policy == ReactorPolicy::Plain && !cfg.steal {
                    for (i, core) in states.iter_mut().enumerate() {
                        core.ticker = Some(Rc::new(IdleTicker {
                            shared: Weak::clone(shared),
                            core: i,
                        }));
                    }
                }
                Shared {
                    policy,
                    idle,
                    steal: cfg.steal,
                    steal_batch: cfg.steal_batch.max(1),
                    recorder: cfg.recorder,
                    handoff: Handoff::new(cfg.handoff_cost),
                    cores: states,
                }
            }),
        }
    }

    /// The future driving core `core` — spawn one per core.
    pub fn run_core(&self, core: usize) -> impl Future<Output = ()> {
        assert!(core < self.shared.cores.len(), "no such core");
        let shared = Rc::clone(&self.shared);
        async move { core_loop(shared, core).await }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.shared.cores.len()
    }

    /// Requests core `i` executed (its own plus stolen ones).
    pub fn served(&self, i: usize) -> u64 {
        self.shared.cores[i].meter.served()
    }

    /// Requests core `i` executed on siblings' behalf.
    pub fn steals(&self, i: usize) -> u64 {
        self.shared.cores[i].steals.get()
    }

    /// Requests siblings took from core `i`'s domain.
    pub fn stolen(&self, i: usize) -> u64 {
        self.shared.cores[i].stolen.get()
    }

    /// Empty scans core `i` paid for (idle burn).
    pub fn empty_scans(&self, i: usize) -> u64 {
        self.shared.cores[i].meter.empty_scans()
    }

    /// Simulated nanoseconds core `i` spent napping.
    pub fn nap_ns(&self, i: usize) -> u64 {
        self.shared.cores[i].meter.nap_ns()
    }

    /// Busy fraction of core `i`'s thread since the last reset.
    pub fn utilization(&self, i: usize) -> f64 {
        self.shared.cores[i].thread.utilization()
    }

    /// Cross-core handoffs charged so far.
    pub fn handoffs(&self) -> u64 {
        self.shared.handoff.count()
    }

    /// Total simulated nanoseconds burned on cross-core handoffs.
    pub fn handoff_ns(&self) -> u64 {
        self.shared.handoff.total_ns()
    }

    /// Point-in-time per-core load rollup (the `CoreSkew` health view).
    pub fn skew_report(&self, now: SimTime) -> CoreSkewReport {
        CoreSkewReport {
            at: now,
            cores: self
                .shared
                .cores
                .iter()
                .enumerate()
                .map(|(i, c)| CoreLoad {
                    core: i as u32,
                    served: c.meter.served(),
                    queue_depth: c.last_backlog.get() as u64,
                    steals: c.steals.get(),
                    stolen: c.stolen.get(),
                    utilization: c.thread.utilization(),
                })
                .collect(),
        }
    }

    /// Zeroes every per-core meter and utilization clock (start of a
    /// measurement window after warm-up).
    pub fn reset_measurements(&self) {
        self.shared.handoff.reset();
        for c in &self.shared.cores {
            c.meter.reset();
            c.steals.set(0);
            c.stolen.set(0);
            c.thread.reset_utilization();
        }
    }
}

async fn core_loop(shared: Rc<Shared>, me: usize) {
    let thread = Rc::clone(&shared.cores[me].thread);
    let mut nap = SimSpan::ZERO;
    loop {
        // A crashed machine runs no software: park (idle, not busy)
        // until the restart clears the flag.
        if thread.machine().faults().is_crashed() {
            thread
                .idle_wait(
                    thread
                        .handle()
                        .sleep(shared.idle.spin.max(SimSpan::micros(1))),
                )
                .await;
            continue;
        }
        let scan = match shared.policy {
            ReactorPolicy::Plain => shared.scan_plain(me, &thread, &mut nap).await,
            ReactorPolicy::Overload => shared.scan_overload(me, &thread).await,
            ReactorPolicy::Tenant => shared.scan_tenant(me, &thread).await,
        };
        if scan.restart {
            continue;
        }
        let core = &shared.cores[me];
        core.note_backlog(scan.backlog);
        let mut served_any = scan.served_any;
        // Only an otherwise-idle core goes hunting, and never on a
        // crashed machine.
        if !scan.crashed && !served_any && shared.steal && shared.cores.len() > 1 {
            served_any |= shared.steal_pass(me, &thread).await;
        }
        if !served_any {
            core.meter.note_empty_scan();
            thread.busy(shared.idle.spin).await;
            nap = shared.idle.next_nap(nap);
            if !nap.is_zero() {
                core.meter.note_nap(nap);
                thread.idle_wait(thread.handle().sleep(nap)).await;
            }
        } else {
            nap = SimSpan::ZERO;
        }
    }
}

impl Shared {
    fn note_served(&self, me: usize) {
        let core = &self.cores[me];
        core.meter.note_served(1);
        if let Some(g) = &core.gauges {
            g.served.incr();
        }
    }

    fn note_steal(&self, me: usize, victim: usize, thread: &ThreadCtx) {
        let core = &self.cores[me];
        core.steals.set(core.steals.get() + 1);
        let v = &self.cores[victim];
        v.stolen.set(v.stolen.get() + 1);
        if let Some(g) = &core.gauges {
            g.steals.incr();
            g.handoff_ns.add(self.handoff.cost().as_nanos());
        }
        if let Some(rec) = &self.recorder {
            rec.record(
                thread.now(),
                None,
                0,
                Severity::Info,
                "core.steal",
                format!("core {me} stole work from core {victim}"),
            );
        }
    }

    /// The shared slot-service epilogue, hoisted out of the legacy
    /// plain/overload/tenant loops: run the owner's handler, charge
    /// the processing span, honor a mid-service crash, stamp credits,
    /// and answer into the request's own slot. Returns `false` if the
    /// machine crashed mid-service (the half-done work dies with it;
    /// the client's resubmission redelivers after the restart).
    async fn service_one(
        &self,
        owner: usize,
        thread: &ThreadCtx,
        conn: &RfpServerConn,
        req: &[u8],
        credits: Option<u16>,
        slot: usize,
    ) -> bool {
        let (resp, process) = self.cores[owner].handler.borrow_mut().handle(req);
        if !process.is_zero() {
            thread.busy(process).await;
        }
        if thread.machine().faults().is_crashed() {
            return false;
        }
        if let Some(c) = credits {
            conn.set_advertised_credits(c);
        }
        // No await between the marker restore and the send: the reply
        // marker is connection-global and any concurrent try_recv
        // moves it.
        conn.set_reply_slot(slot);
        conn.send(thread, &resp).await;
        true
    }

    /// The classic scan: every pending request is processed in scan
    /// order, each connection drained (up to its ring window) per
    /// visit. Written as a cursor over checks so that [`pace`] can hand
    /// empty checks to the core's idle chain, which may carry the core
    /// on into later scans; their state then replaces this one's.
    ///
    /// [`pace`]: Shared::pace
    async fn scan_plain(&self, me: usize, thread: &ThreadCtx, nap: &mut SimSpan) -> ScanOutcome {
        let core = &self.cores[me];
        let mut scan = ScanState::default();
        let mut cur = Cursor::default();
        let mut crashed = false;
        while cur.ci < core.conns.len() {
            let oc = &core.conns[cur.ci];
            if cur.tries == 0 && cur.j == 0 && !oc.try_claim() {
                cur.ci += 1;
                continue;
            }
            if cur.j == 0 {
                // A new try_recv: crash check, then one scan visit.
                if thread.machine().faults().is_crashed() {
                    crashed = true;
                    oc.release();
                    break;
                }
                oc.conn.note_visit();
            }
            // The idle chain moves the cursor between visits without
            // claiming; re-seat the claim wherever the core resumes.
            let from = cur.ci;
            let slot = match self.pace(me, thread, &mut cur, &mut scan, nap).await {
                Paced::Read(slot) => {
                    core.conns[from].release();
                    core.conns[cur.ci].try_claim();
                    slot
                }
                Paced::Resume => {
                    core.conns[from].release();
                    continue;
                }
                Paced::Restart => {
                    core.conns[from].release();
                    return ScanOutcome {
                        restart: true,
                        ..ScanOutcome::default()
                    };
                }
            };
            let oc = &core.conns[cur.ci];
            let window = oc.conn.window();
            let Some(req) = oc.conn.check_slot(thread, slot).await else {
                cur.j += 1;
                if cur.j == window {
                    // try_recv came up empty: the visit ends.
                    oc.release();
                    cur = Cursor {
                        ci: cur.ci + 1,
                        ..Cursor::default()
                    };
                }
                continue;
            };
            scan.backlog += 1;
            let slot = oc.conn.reply_slot();
            if !self
                .service_one(me, thread, &oc.conn, &req, None, slot)
                .await
            {
                crashed = true;
                oc.release();
                break;
            }
            scan.served_any = true;
            self.note_served(me);
            cur.tries += 1;
            cur.j = 0;
            if cur.tries == window {
                oc.release();
                cur = Cursor {
                    ci: cur.ci + 1,
                    ..Cursor::default()
                };
            }
        }
        ScanOutcome {
            served_any: scan.served_any,
            crashed,
            backlog: scan.backlog,
            restart: false,
        }
    }

    /// Pays for the header check at `cur`. A core with an idle chain
    /// hands the check to it and sleeps: the executor steps every check,
    /// scan end, spin and nap that finds nothing, and wakes the core
    /// where one needs it — a header holding a new request, or a crash
    /// check on a machine that is down. `cur`, `scan` and `nap` then
    /// hold the core's state at that point. Without a chain the core
    /// steps the check itself.
    async fn pace(
        &self,
        me: usize,
        thread: &ThreadCtx,
        cur: &mut Cursor,
        scan: &mut ScanState,
        nap: &mut SimSpan,
    ) -> Paced {
        let core = &self.cores[me];
        let Some(ticker) = &core.ticker else {
            let conn = &core.conns[cur.ci].conn;
            let slot = conn.next_slot();
            thread.busy(conn.check_cpu()).await;
            return Paced::Read(slot);
        };
        let mut run = IdleRun {
            step: IdleStep::Spin,
            cur: *cur,
            scan: *scan,
            nap: *nap,
            waker: None,
            resume: None,
        };
        let now = thread.now();
        let at = core.arm_check(&mut run, now);
        *core.idle.borrow_mut() = Some(run);
        // A free check is read within this poll, as `busy` would.
        let due = if at == now {
            self.idle_tick(me, now)
        } else {
            Some(at)
        };
        if let Some(due) = due {
            thread
                .handle()
                .schedule_tick(due, Rc::clone(ticker) as Rc<dyn Tick>);
        }
        IdleWait { core }.await;
        let run = core.idle.borrow_mut().take().expect("an idle run");
        *cur = run.cur;
        *scan = run.scan;
        *nap = run.nap;
        run.resume.expect("the idle chain handed back")
    }

    /// Runs core `me`'s idle chain at `now`: completes the pending step
    /// as the stepped loop would at this instant, and the steps after it
    /// while they take no time, then returns when the next is due — or
    /// hands control back to the core (see [`Shared::pace`]).
    fn idle_tick(&self, me: usize, now: SimTime) -> Option<SimTime> {
        let core = &self.cores[me];
        let mut idle = core.idle.borrow_mut();
        let run = idle.as_mut()?;
        loop {
            // A zero-length busy or sleep completes within the poll that
            // started it, so the chain goes on at this instant too.
            match self.idle_step(core, run, now) {
                Some(next) if next == now => continue,
                next => return next,
            }
        }
    }

    /// One step of an idle chain (see [`Shared::idle_tick`]).
    fn idle_step(&self, core: &CoreState, run: &mut IdleRun, now: SimTime) -> Option<SimTime> {
        match run.step {
            IdleStep::Check(slot) => {
                let conn = &core.conns[run.cur.ci].conn;
                if conn.new_request(slot).is_some() {
                    return run.hand_back(Paced::Read(slot));
                }
                conn.note_check();
                run.cur.j += 1;
                if run.cur.j < conn.window() {
                    return Some(core.arm_check(run, now));
                }
                // The try_recv came up empty: the visit ends.
                run.cur = Cursor {
                    ci: run.cur.ci + 1,
                    ..Cursor::default()
                };
                if run.cur.ci < core.conns.len() {
                    return core.start_try(run, now);
                }
                // Scan end: the tail of `core_loop`.
                core.note_backlog(run.scan.backlog);
                if run.scan.served_any {
                    run.nap = SimSpan::ZERO;
                    return core.loop_top(run, now);
                }
                core.meter.note_empty_scan();
                let spin = core.thread.cpu_span(self.idle.spin);
                core.thread.note_busy(spin);
                run.step = IdleStep::Spin;
                Some(now + spin)
            }
            IdleStep::Spin => {
                run.nap = self.idle.next_nap(run.nap);
                if run.nap.is_zero() {
                    return core.loop_top(run, now);
                }
                core.meter.note_nap(run.nap);
                run.step = IdleStep::Nap;
                Some(now + run.nap)
            }
            IdleStep::Nap => core.loop_top(run, now),
        }
    }

    /// The admission-controlled scan (PR 5): phase 1 sweeps every
    /// pending request through the pure admission rule, answering
    /// rejections on the spot; phase 2 drains the admitted batch.
    /// Admission is final — nothing admitted is ever shed.
    async fn scan_overload(&self, me: usize, thread: &ThreadCtx) -> ScanOutcome {
        let core = &self.cores[me];
        let ov = &core.ov;
        let mut served_any = false;
        let mut crashed = false;
        let mut backlog = 0usize;
        'sweep: for (ci, oc) in core.conns.iter().enumerate() {
            if !oc.try_claim() {
                continue;
            }
            for _ in 0..oc.conn.window() {
                if thread.machine().faults().is_crashed() {
                    crashed = true;
                    break;
                }
                let Some(req) = oc.conn.try_recv(thread).await else {
                    break;
                };
                backlog += 1;
                match admit(
                    ov,
                    thread.now(),
                    oc.conn.current_deadline(),
                    core.runq.len(),
                ) {
                    Admission::Admit => core.runq.push(Ready {
                        owner: me,
                        conn: ci,
                        slot: oc.conn.reply_slot(),
                        tenant: None,
                        req,
                    }),
                    Admission::Busy => {
                        // Out of queue room: advertise zero so the
                        // client backs off before resubmitting.
                        oc.conn.set_advertised_credits(0);
                        oc.conn.reject(thread, RespStatus::Busy).await;
                        served_any = true;
                    }
                    Admission::Shed => {
                        oc.conn.set_advertised_credits(core.advertised.get());
                        oc.conn.reject(thread, RespStatus::Shed).await;
                        served_any = true;
                    }
                }
            }
            oc.release();
            if crashed {
                break 'sweep;
            }
        }
        // Credits advertised on the *next* scan's rejections and this
        // batch's responses come from this scan's backlog — the
        // freshest level the server knows.
        core.advertised.set(credits_for(ov, backlog));
        if !crashed {
            while let Some(r) = core.runq.pop() {
                if thread.machine().faults().is_crashed() {
                    break;
                }
                let ok = self
                    .service_one(
                        me,
                        thread,
                        &core.conns[r.conn].conn,
                        &r.req,
                        Some(core.advertised.get()),
                        r.slot,
                    )
                    .await;
                if !ok {
                    break;
                }
                served_any = true;
                self.note_served(me);
            }
        }
        // A crash drops whatever the sweep admitted (the legacy batch
        // vector died with the scan); already-recv'd requests are
        // redelivered by resubmission after the restart.
        core.runq.clear();
        ScanOutcome {
            served_any,
            crashed,
            backlog,
            restart: false,
        }
    }

    /// The per-tenant admission scan (PR 7): the two-phase sweep with
    /// [`TenantCredits`] in place of the single global queue bound.
    async fn scan_tenant(&self, me: usize, thread: &ThreadCtx) -> ScanOutcome {
        let core = &self.cores[me];
        let ov = &core.ov;
        let mut served_any = false;
        let mut crashed = false;
        let mut backlog = 0usize;
        core.credits.begin_scan();
        'sweep: for (ci, oc) in core.conns.iter().enumerate() {
            if !oc.try_claim() {
                continue;
            }
            for _ in 0..oc.conn.window() {
                if thread.machine().faults().is_crashed() {
                    crashed = true;
                    break;
                }
                let Some(req) = oc.conn.try_recv(thread).await else {
                    break;
                };
                backlog += 1;
                let tenant = oc.conn.current_tenant();
                match core
                    .credits
                    .admit(ov, thread.now(), oc.conn.current_deadline(), tenant)
                {
                    Admission::Admit => core.runq.push(Ready {
                        owner: me,
                        conn: ci,
                        slot: oc.conn.reply_slot(),
                        tenant,
                        req,
                    }),
                    Admission::Busy => {
                        oc.conn.set_advertised_credits(0);
                        oc.conn.reject(thread, RespStatus::Busy).await;
                        served_any = true;
                    }
                    Admission::Shed => {
                        oc.conn
                            .set_advertised_credits(core.credits.credits(ov, tenant));
                        oc.conn.reject(thread, RespStatus::Shed).await;
                        served_any = true;
                    }
                }
            }
            oc.release();
            if crashed {
                break 'sweep;
            }
        }
        if !crashed {
            while let Some(r) = core.runq.pop() {
                if thread.machine().faults().is_crashed() {
                    break;
                }
                // The credit level stamped on each response is the
                // *sender's own* domain backlog.
                let credits = core.credits.credits(ov, r.tenant);
                let ok = self
                    .service_one(
                        me,
                        thread,
                        &core.conns[r.conn].conn,
                        &r.req,
                        Some(credits),
                        r.slot,
                    )
                    .await;
                if !ok {
                    break;
                }
                served_any = true;
                self.note_served(me);
            }
        }
        core.runq.clear();
        ScanOutcome {
            served_any,
            crashed,
            backlog,
            restart: false,
        }
    }

    /// The victim's admission policy applied to a request a thief just
    /// pulled off the victim's ring. Synchronous — must run with no
    /// await since the `try_recv` that delivered the request.
    fn admission(&self, victim: usize, conn: &RfpServerConn, now: SimTime) -> Verdict {
        let v = &self.cores[victim];
        match self.policy {
            ReactorPolicy::Plain => Verdict::Run(None),
            ReactorPolicy::Overload => {
                match admit(&v.ov, now, conn.current_deadline(), v.runq.len()) {
                    Admission::Admit => Verdict::Run(Some(v.advertised.get())),
                    Admission::Busy => Verdict::Reject(RespStatus::Busy, 0),
                    Admission::Shed => Verdict::Reject(RespStatus::Shed, v.advertised.get()),
                }
            }
            ReactorPolicy::Tenant => {
                let tenant = conn.current_tenant();
                match v.credits.admit(&v.ov, now, conn.current_deadline(), tenant) {
                    Admission::Admit => Verdict::Run(Some(v.credits.credits(&v.ov, tenant))),
                    Admission::Busy => Verdict::Reject(RespStatus::Busy, 0),
                    Admission::Shed => {
                        Verdict::Reject(RespStatus::Shed, v.credits.credits(&v.ov, tenant))
                    }
                }
            }
        }
    }

    /// One steal pass by an idle core: first sibling run queues, then
    /// loaded siblings' rings. Returns whether any response (service
    /// or rejection) was produced.
    async fn steal_pass(&self, me: usize, thread: &ThreadCtx) -> bool {
        let n = self.cores.len();
        let batch = self.steal_batch as u64;
        let mut taken = 0u64;
        let mut any = false;
        'victims: for k in 1..n {
            let v = (me + k) % n;
            let victim = &self.cores[v];
            // (a) Admitted-but-unprocessed work parked on the victim's
            // run queue. The victim already made the admission call;
            // the thief just executes, paying the handoff.
            while taken < batch {
                if thread.machine().faults().is_crashed() {
                    break 'victims;
                }
                let Some(r) = victim.runq.steal() else {
                    break;
                };
                self.handoff.charge(thread).await;
                self.note_steal(me, v, thread);
                let credits = match self.policy {
                    ReactorPolicy::Plain => None,
                    ReactorPolicy::Overload => Some(victim.advertised.get()),
                    ReactorPolicy::Tenant => Some(victim.credits.credits(&victim.ov, r.tenant)),
                };
                let conn = &self.cores[r.owner].conns[r.conn].conn;
                if !self
                    .service_one(r.owner, thread, conn, &r.req, credits, r.slot)
                    .await
                {
                    break 'victims;
                }
                taken += 1;
                any = true;
                self.note_served(me);
            }
            if taken >= batch {
                break;
            }
            // (b) Ring backlog: only victims whose last scan actually
            // found work — polling an idle sibling's rings would burn
            // thief CPU for nothing.
            if victim.last_backlog.get() == 0 {
                continue;
            }
            for oc in &victim.conns {
                if taken >= batch {
                    break 'victims;
                }
                if !oc.try_claim() {
                    continue;
                }
                let mut dead = false;
                for _ in 0..oc.conn.window() {
                    if taken >= batch {
                        break;
                    }
                    if thread.machine().faults().is_crashed() {
                        dead = true;
                        break;
                    }
                    let Some(req) = oc.conn.try_recv(thread).await else {
                        break;
                    };
                    match self.admission(v, &oc.conn, thread.now()) {
                        Verdict::Run(credits) => {
                            let slot = oc.conn.reply_slot();
                            self.handoff.charge(thread).await;
                            self.note_steal(me, v, thread);
                            if !self
                                .service_one(v, thread, &oc.conn, &req, credits, slot)
                                .await
                            {
                                dead = true;
                                break;
                            }
                            taken += 1;
                            any = true;
                            self.note_served(me);
                        }
                        Verdict::Reject(status, adv) => {
                            oc.conn.set_advertised_credits(adv);
                            oc.conn.reject(thread, status).await;
                            any = true;
                        }
                    }
                }
                oc.release();
                if dead {
                    break 'victims;
                }
            }
        }
        any
    }
}
