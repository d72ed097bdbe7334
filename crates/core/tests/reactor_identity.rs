//! N=1 reactor ≡ legacy serve loops, byte for byte.
//!
//! The multi-core refactor folded three serve-loop variants (the
//! classic scan, the admission-swept batch drain, the per-tenant
//! poller loop) into one [`Reactor`](rfp_core::Reactor). The refactor
//! contract is that a single-core reactor replays the legacy loops
//! *event for event*: same try_recv order, same busy charges, same
//! crash checks, same credit stamps, same idle backoff. This test pins
//! that contract the way `prop_mux` pins the mux veneer: frozen
//! verbatim copies of the pre-refactor loops run against the reactor
//! under randomized knobs (policy, ring window, idle backoff, client
//! count, payload sizes), and every observable surface — virtual
//! clock, full registry snapshot, NIC counters, every response payload,
//! the server thread's busy time and idle meters — must compare equal.
//!
//! The Plain-policy reactor no longer polls through its empty checks:
//! an idle chain of executor ticks steps them in the core's place. The
//! long-idle scenarios (exponential think time, runs split into several
//! `run_for` windows, several server threads, server-reply mode) and
//! the landing-on-a-check-instant test pin that against the same
//! oracle.

use std::cell::Cell;
use std::rc::Rc;

use proptest::collection::vec;
use proptest::prelude::*;

use rand::{Rng, SeedableRng};
use rfp_core::{
    admit, connect, credits_for, Admission, CoreSpec, IdlePolicy, OverloadConfig, Reactor,
    ReactorConfig, ReactorPolicy, RespStatus, RfpClient, RfpConfig, RfpHandler, RfpServerConn,
    RfpTelemetry, TenantCredits,
};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{derive_seed, ExecCounters, MetricsRegistry, SimSpan, Simulation, SpanRecorder};

/// Which admission discipline the scenario runs (and which frozen
/// legacy loop the reactor is compared against).
#[derive(Copy, Clone, Debug)]
enum Policy {
    Plain,
    Overload,
    Tenant,
}

/// Everything observable about one run.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    now_ns: u64,
    registry_csv: String,
    spans_recorded: u64,
    nics: Vec<rfp_rnic::NicCounters>,
    /// Every response payload (or rejection marker), per client, in
    /// call order.
    responses: Vec<Vec<Vec<u8>>>,
    /// Server thread `utilization()` (as bits) at the end of every
    /// `run_for` window.
    server_util_bits: Vec<u64>,
    /// Empty scans and nap nanoseconds the server booked.
    empty_scans: u64,
    nap_ns: u64,
    /// Per recorded request: pickup instant minus landing instant of its
    /// request WRITE (0 when the WRITE landed on a check instant).
    ring_lag_ns: Vec<i64>,
}

/// Idle bookkeeping added to the frozen loops: counted exactly where the
/// reactor's `CoreMeter` counts (scan end, then nap after the spin).
#[derive(Default)]
struct IdleMeter {
    empty_scans: Cell<u64>,
    nap_ns: Cell<u64>,
}

impl IdleMeter {
    async fn idle(&self, thread: &ThreadCtx, idle: &IdlePolicy, nap: &mut SimSpan) {
        self.empty_scans.set(self.empty_scans.get() + 1);
        thread.busy(idle.spin).await;
        *nap = next_nap(idle, *nap);
        if !nap.is_zero() {
            self.nap_ns.set(self.nap_ns.get() + nap.as_nanos());
            thread.idle_wait(thread.handle().sleep(*nap)).await;
        }
    }
}

/// `IdlePolicy::next_nap`, reimplemented from its public contract (the
/// method itself is crate-private): zero without backoff, else doubling
/// from `spin` up to `max_nap`.
fn next_nap(idle: &IdlePolicy, prev: SimSpan) -> SimSpan {
    if idle.max_nap.is_zero() {
        return SimSpan::ZERO;
    }
    if prev.is_zero() {
        idle.spin.min(idle.max_nap)
    } else {
        SimSpan::nanos(prev.as_nanos().saturating_mul(2)).min(idle.max_nap)
    }
}

/// Frozen copy of the pre-reactor `serve_loop_plain`.
async fn legacy_plain(
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<RfpServerConn>>,
    mut handler: impl RfpHandler,
    idle: IdlePolicy,
    meter: Rc<IdleMeter>,
) {
    let mut nap = SimSpan::ZERO;
    loop {
        if thread.machine().faults().is_crashed() {
            thread
                .idle_wait(thread.handle().sleep(idle.spin.max(SimSpan::micros(1))))
                .await;
            continue;
        }
        let mut served_any = false;
        'conns: for conn in &conns {
            for _ in 0..conn.window() {
                if thread.machine().faults().is_crashed() {
                    break 'conns;
                }
                let Some(req) = conn.try_recv(&thread).await else {
                    break;
                };
                let (resp, process) = handler.handle(&req);
                if !process.is_zero() {
                    thread.busy(process).await;
                }
                if thread.machine().faults().is_crashed() {
                    break 'conns;
                }
                conn.send(&thread, &resp).await;
                served_any = true;
            }
        }
        if !served_any {
            meter.idle(&thread, &idle, &mut nap).await;
        } else {
            nap = SimSpan::ZERO;
        }
    }
}

/// Frozen copy of the pre-reactor `serve_loop_overload`.
async fn legacy_overload(
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<RfpServerConn>>,
    mut handler: impl RfpHandler,
    idle: IdlePolicy,
    // The legacy loop read this via the (crate-private) conn accessor;
    // the test passes the identical config in from the rig instead.
    ov: OverloadConfig,
    meter: Rc<IdleMeter>,
) {
    let mut advertised = ov.credit_max;
    let mut nap = SimSpan::ZERO;
    loop {
        if thread.machine().faults().is_crashed() {
            thread
                .idle_wait(thread.handle().sleep(idle.spin.max(SimSpan::micros(1))))
                .await;
            continue;
        }
        let mut served_any = false;
        let mut crashed = false;
        let mut admitted: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut backlog = 0usize;
        'sweep: for (i, conn) in conns.iter().enumerate() {
            for _ in 0..conn.window() {
                if thread.machine().faults().is_crashed() {
                    crashed = true;
                    break 'sweep;
                }
                let Some(req) = conn.try_recv(&thread).await else {
                    break;
                };
                backlog += 1;
                match admit(&ov, thread.now(), conn.current_deadline(), admitted.len()) {
                    Admission::Admit => admitted.push((i, req)),
                    Admission::Busy => {
                        conn.set_advertised_credits(0);
                        conn.reject(&thread, RespStatus::Busy).await;
                        served_any = true;
                    }
                    Admission::Shed => {
                        conn.set_advertised_credits(advertised);
                        conn.reject(&thread, RespStatus::Shed).await;
                        served_any = true;
                    }
                }
            }
        }
        advertised = credits_for(&ov, backlog);
        if !crashed {
            for (i, req) in admitted {
                if thread.machine().faults().is_crashed() {
                    break;
                }
                let (resp, process) = handler.handle(&req);
                if !process.is_zero() {
                    thread.busy(process).await;
                }
                if thread.machine().faults().is_crashed() {
                    break;
                }
                conns[i].set_advertised_credits(advertised);
                conns[i].send(&thread, &resp).await;
                served_any = true;
            }
        }
        if !served_any {
            meter.idle(&thread, &idle, &mut nap).await;
        } else {
            nap = SimSpan::ZERO;
        }
    }
}

/// Frozen copy of the pre-reactor `serve_loop_tenant`.
async fn legacy_tenant(
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<RfpServerConn>>,
    mut handler: impl RfpHandler,
    idle: IdlePolicy,
    ov: OverloadConfig,
    meter: Rc<IdleMeter>,
) {
    assert!(ov.enabled);
    let credits = TenantCredits::new();
    let mut nap = SimSpan::ZERO;
    loop {
        if thread.machine().faults().is_crashed() {
            thread
                .idle_wait(thread.handle().sleep(idle.spin.max(SimSpan::micros(1))))
                .await;
            continue;
        }
        let mut served_any = false;
        let mut crashed = false;
        credits.begin_scan();
        let mut admitted: Vec<(usize, Option<u32>, Vec<u8>)> = Vec::new();
        'sweep: for (i, conn) in conns.iter().enumerate() {
            for _ in 0..conn.window() {
                if thread.machine().faults().is_crashed() {
                    crashed = true;
                    break 'sweep;
                }
                let Some(req) = conn.try_recv(&thread).await else {
                    break;
                };
                let tenant = conn.current_tenant();
                match credits.admit(&ov, thread.now(), conn.current_deadline(), tenant) {
                    Admission::Admit => admitted.push((i, tenant, req)),
                    Admission::Busy => {
                        conn.set_advertised_credits(0);
                        conn.reject(&thread, RespStatus::Busy).await;
                        served_any = true;
                    }
                    Admission::Shed => {
                        conn.set_advertised_credits(credits.credits(&ov, tenant));
                        conn.reject(&thread, RespStatus::Shed).await;
                        served_any = true;
                    }
                }
            }
        }
        if !crashed {
            for (i, tenant, req) in admitted {
                if thread.machine().faults().is_crashed() {
                    break;
                }
                let (resp, process) = handler.handle(&req);
                if !process.is_zero() {
                    thread.busy(process).await;
                }
                if thread.machine().faults().is_crashed() {
                    break;
                }
                conns[i].set_advertised_credits(credits.credits(&ov, tenant));
                conns[i].send(&thread, &resp).await;
                served_any = true;
            }
        }
        if !served_any {
            meter.idle(&thread, &idle, &mut nap).await;
        } else {
            nap = SimSpan::ZERO;
        }
    }
}

struct Scenario {
    seed: u64,
    policy: Policy,
    m: usize,
    window: usize,
    calls: usize,
    sizes: Vec<usize>,
    adaptive: bool,
    queue_limit: usize,
    deadline_us: u64,
    /// Mean of the exponential think time between calls (or pipelined
    /// batches); zero for back-to-back calls.
    think_ns: u64,
    /// Delay before each client's first call.
    start_ns: u64,
    /// The run, as consecutive `run_for` windows.
    chunks_ns: Vec<u64>,
    /// Server threads on the server machine; connection `i` belongs to
    /// thread `i % servers`.
    servers: usize,
    /// Connections start in server-reply mode with the switch off, so
    /// every response is an out-bound WRITE through the one server NIC.
    reply_mode: bool,
    /// CPU cost of one header check.
    check: SimSpan,
}

impl Scenario {
    /// The short closed-loop shape of the original identity contract.
    fn closed(seed: u64, policy: Policy, m: usize, window: usize, calls: usize) -> Self {
        Scenario {
            seed,
            policy,
            m,
            window,
            calls,
            sizes: vec![16],
            adaptive: false,
            queue_limit: 4,
            deadline_us: 1_000,
            think_ns: 0,
            start_ns: 0,
            chunks_ns: vec![3_000_000],
            servers: 1,
            reply_mode: false,
            check: RfpConfig::default().check_cpu,
        }
    }
}

/// Runs the scenario with a one-core reactor built exactly as
/// `serve_loop` / `serve_loop_tenant` build it (`legacy = false`) or the
/// frozen pre-refactor loops (`legacy = true`). Rig construction is
/// identical in both arms. Also returns the executor's counters.
fn run_counted(sc: &Scenario, legacy: bool) -> (Observed, ExecCounters) {
    let registry = MetricsRegistry::new();
    let spans = SpanRecorder::new(4096);
    let mut sim = Simulation::new(sc.seed);
    let profile = ClusterProfile::paper_testbed();
    let prop = profile.link.propagation;
    let cluster = Cluster::new(&mut sim, profile, 2);
    let (cm, sm) = (cluster.machine(0), cluster.machine(1));
    cluster.attach_metrics(&registry);

    let overload_on = !matches!(sc.policy, Policy::Plain);
    let mut clients: Vec<Rc<RfpClient>> = Vec::new();
    let mut conns: Vec<Rc<RfpServerConn>> = Vec::new();
    let mut ov0: Option<OverloadConfig> = None;
    for i in 0..sc.m {
        let ov = OverloadConfig {
            enabled: overload_on,
            queue_limit: sc.queue_limit,
            deadline: SimSpan::micros(sc.deadline_us),
            seed: rfp_simnet::derive_seed(sc.seed, 0x0CAFE + i as u64),
            ..OverloadConfig::default()
        };
        if i == 0 {
            ov0 = Some(ov.clone());
        }
        let cfg = RfpConfig {
            window: sc.window,
            overload: ov,
            telemetry: Some(RfpTelemetry {
                registry: registry.clone(),
                spans: spans.clone(),
                prefix: format!("rfp.client.{i}"),
                track: i as u32,
            }),
            conn_id: i as u32,
            initial_mode: if sc.reply_mode {
                rfp_core::Mode::ServerReply
            } else {
                rfp_core::Mode::RemoteFetch
            },
            enable_mode_switch: !sc.reply_mode,
            check_cpu: sc.check,
            ..RfpConfig::default()
        };
        let (cl, sc_conn) = connect(&cm, &sm, cluster.qp(0, 1), cluster.qp(1, 0), cfg);
        if matches!(sc.policy, Policy::Tenant) {
            cl.set_tenant(Some(i as u32 % 2));
        }
        clients.push(Rc::new(cl));
        conns.push(Rc::new(sc_conn));
    }

    // Server threads each owning a share of the connections, every one
    // the N=1 core shape the identity contract covers.
    let idle = if sc.adaptive {
        IdlePolicy::adaptive(SimSpan::nanos(100), SimSpan::micros(100))
    } else {
        IdlePolicy::fixed(SimSpan::nanos(100))
    };
    let meter = Rc::new(IdleMeter::default());
    let mut reactors = Vec::new();
    let mut threads = Vec::new();
    for k in 0..sc.servers {
        let st = sm.thread(format!("server{k}"));
        threads.push(Rc::clone(&st));
        let owned: Vec<Rc<RfpServerConn>> = conns
            .iter()
            .enumerate()
            .filter(|(i, _)| i % sc.servers == k)
            .map(|(_, c)| Rc::clone(c))
            .collect();
        let handler = |req: &[u8]| (req.to_vec(), SimSpan::micros(1));
        if legacy {
            let meter = Rc::clone(&meter);
            let ov = ov0.clone().expect("at least one conn");
            match sc.policy {
                Policy::Plain => sim.spawn(legacy_plain(st, owned, handler, idle, meter)),
                Policy::Overload => sim.spawn(legacy_overload(st, owned, handler, idle, ov, meter)),
                Policy::Tenant => sim.spawn(legacy_tenant(st, owned, handler, idle, ov, meter)),
            }
        } else {
            let policy = match sc.policy {
                Policy::Plain => ReactorPolicy::Plain,
                Policy::Overload => ReactorPolicy::Overload,
                Policy::Tenant => ReactorPolicy::Tenant,
            };
            let r = Reactor::new(
                ReactorConfig::default(),
                vec![CoreSpec {
                    thread: st,
                    conns: owned,
                    handler: Box::new(handler),
                }],
                idle,
                policy,
            );
            sim.spawn(r.run_core(0));
            reactors.push(r);
        }
    }

    let responses: Rc<std::cell::RefCell<Vec<Vec<Vec<u8>>>>> =
        Rc::new(std::cell::RefCell::new(vec![Vec::new(); sc.m]));
    for i in 0..sc.m {
        let t = cm.thread(format!("task{i}"));
        let client = Rc::clone(&clients[i]);
        let sizes = sc.sizes.clone();
        let calls = sc.calls;
        let out = Rc::clone(&responses);
        let pipelined = matches!(sc.policy, Policy::Plain) && sc.window > 1;
        let overload = overload_on;
        let (think_ns, start_ns) = (sc.think_ns, sc.start_ns);
        let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(sc.seed, 0x7E1 + i as u64));
        let h = t.handle().clone();
        sim.spawn(async move {
            let think = |rng: &mut rand::rngs::StdRng| {
                let u: f64 = rng.gen();
                SimSpan::nanos((-(1.0 - u).ln() * think_ns as f64) as u64)
            };
            h.sleep(SimSpan::nanos(start_ns)).await;
            let payload = |k: usize| -> Vec<u8> {
                let len = sizes[(i + k) % sizes.len()];
                (0..len).map(|b| (b + i * 31 + k) as u8).collect()
            };
            if pipelined {
                // Batches through the ring: multiple slots of one
                // connection pending in a single server scan. Without
                // think time, one batch.
                let batches = if think_ns == 0 { 1 } else { calls };
                for b in 0..batches {
                    let reqs: Vec<Vec<u8>> = (0..calls).map(|k| payload(b + k)).collect();
                    let outs = client.call_pipelined(&t, &reqs).await;
                    for o in outs {
                        out.borrow_mut()[i].push(o.data);
                    }
                    if think_ns > 0 {
                        h.sleep(think(&mut rng)).await;
                    }
                }
                return;
            }
            for k in 0..calls {
                if overload {
                    let r = client.call_overload(&t, &payload(k), None).await;
                    // Rejections observe as status markers so both arms
                    // must reject identically, not just serve
                    // identically.
                    let data = match r.info.status {
                        RespStatus::Ok => r.data,
                        s => vec![0xEE, s as u8],
                    };
                    out.borrow_mut()[i].push(data);
                } else {
                    let r = client.call(&t, &payload(k)).await;
                    out.borrow_mut()[i].push(r.data);
                }
                if think_ns > 0 {
                    h.sleep(think(&mut rng)).await;
                }
            }
        });
    }
    let mut server_util_bits = Vec::new();
    for &chunk in &sc.chunks_ns {
        sim.run_for(SimSpan::nanos(chunk));
        server_util_bits.extend(threads.iter().map(|t| t.utilization().to_bits()));
    }

    let mut registry_csv = Vec::new();
    registry
        .snapshot()
        .write_csv(&mut registry_csv)
        .expect("render snapshot");
    let (empty_scans, nap_ns) = if legacy {
        (meter.empty_scans.get(), meter.nap_ns.get())
    } else {
        reactors
            .iter()
            .fold((0, 0), |(e, n), r| (e + r.empty_scans(0), n + r.nap_ns(0)))
    };
    let mark = |t: &rfp_simnet::RequestTrace, label: &str| {
        t.marks()
            .iter()
            .find(|m| m.1 == label)
            .map(|m| m.0.as_nanos() as i64)
    };
    let ring_lag_ns = spans
        .snapshot()
        .iter()
        .filter_map(|t| {
            // The request WRITE lands one propagation before the client
            // sees its ACK (`request_written`).
            let landed = mark(t, "request_written")? - prop.as_nanos() as i64;
            Some(mark(t, "server_dequeued")? - landed)
        })
        .collect();
    let responses = responses.borrow().clone();
    let observed = Observed {
        now_ns: sim.now().as_nanos(),
        registry_csv: String::from_utf8(registry_csv).expect("csv is utf8"),
        spans_recorded: spans.recorded(),
        nics: (0..2)
            .map(|i| cluster.machine(i).nic().counters())
            .collect(),
        responses,
        server_util_bits,
        empty_scans,
        nap_ns,
        ring_lag_ns,
    };
    (observed, sim.counters())
}

fn run(sc: &Scenario, legacy: bool) -> Observed {
    run_counted(sc, legacy).0
}

proptest! {
    /// Single-core reactor ≡ frozen legacy loops, observably everywhere.
    #[test]
    fn single_core_reactor_is_byte_identical_to_legacy_loops(
        seed in 0u64..200,
        policy_pick in 0usize..3,
        m in 1usize..4,
        wexp in 0usize..3,
        calls in 1usize..5,
        sizes in vec(1usize..96, 1..4),
        adaptive in any::<bool>(),
        queue_limit in 1usize..8,
        deadline_tight in any::<bool>(),
    ) {
        let sc = Scenario {
            sizes,
            adaptive,
            queue_limit,
            deadline_us: if deadline_tight { 5 } else { 1_000 },
            ..Scenario::closed(
                seed,
                [Policy::Plain, Policy::Overload, Policy::Tenant][policy_pick],
                m,
                1usize << wexp,
                calls,
            )
        };
        let reactor = run(&sc, false);
        let frozen = run(&sc, true);
        prop_assert_eq!(&reactor, &frozen);
    }

    /// Long idle stretches: clients think for an exponential time
    /// between calls, the server mostly idles (so idle chains step most
    /// of its checks), and the driver observes between several
    /// `run_for` windows of a ≥ 5 ms run. Up to two server threads
    /// share the server NIC; in server-reply mode their responses
    /// queue on its out-bound engine, so their relative order at tied
    /// instants shows.
    #[test]
    fn long_idle_runs_are_byte_identical_to_legacy_loops(
        seed in 0u64..1_000,
        m in 1usize..6,
        wide in any::<bool>(),
        adaptive in any::<bool>(),
        calls in 1usize..30,
        sizes in vec(1usize..96, 1..4),
        think_us in 2u64..300,
        start_ns in 0u64..500,
        chunks_us in vec(1u64..2_500, 1..6),
        servers in 1usize..3,
        reply_mode in any::<bool>(),
    ) {
        let mut chunks_ns: Vec<u64> = chunks_us.iter().map(|c| c * 1_000).collect();
        let total: u64 = chunks_ns.iter().sum();
        chunks_ns.push(5_000_000u64.saturating_sub(total).max(1));
        let sc = Scenario {
            sizes,
            adaptive,
            think_ns: think_us * 1_000,
            start_ns,
            chunks_ns,
            servers: servers.min(m),
            // The pipelined driver fetches remotely only.
            reply_mode: reply_mode && !wide,
            ..Scenario::closed(seed, Policy::Plain, m, if wide { 8 } else { 1 }, calls)
        };
        let (reactor, ticked) = run_counted(&sc, false);
        let (frozen, stepped) = run_counted(&sc, true);
        prop_assert_eq!(&reactor, &frozen);
        // Ticks replace the stepped cores' timers one for one.
        prop_assert_eq!(ticked.timer_fires, stepped.timer_fires);
    }
}

/// A request WRITE that lands exactly on a check instant is picked up by
/// that check (ring lag 0), in both arms. Sweeping the client's start
/// across two scan periods walks its landing over every check phase of
/// the idle server, so some start lands on a check exactly.
#[test]
fn write_landing_on_a_check_instant_is_seen_by_that_check() {
    let mut exact = 0;
    let mut later = 0;
    for start_ns in 0..300 {
        for adaptive in [false, true] {
            let sc = Scenario {
                adaptive,
                start_ns: 20_000 + start_ns,
                chunks_ns: vec![30_000, 40_000],
                ..Scenario::closed(7, Policy::Plain, 3, 1, 2)
            };
            let reactor = run(&sc, false);
            let frozen = run(&sc, true);
            assert_eq!(reactor, frozen, "start {start_ns}, adaptive {adaptive}");
            let first = frozen.ring_lag_ns[0];
            assert!(first >= 0, "a check never sees a WRITE before it lands");
            if first == 0 {
                exact += 1;
            } else {
                later += 1;
            }
        }
    }
    assert!(exact > 0, "no start landed a WRITE on a check instant");
    assert!(later > 0);
}

#[test]
fn free_checks_are_read_within_the_poll_that_pays_them() {
    // With a zero check cost a stepped core reads every header of a scan
    // in one poll; the idle chain must not turn those reads into
    // same-instant timers of their own. Ticks replace the stepped
    // core's timers one for one, so the timer counts match too.
    for (w, adaptive) in [(1, false), (4, true)] {
        let sc = Scenario {
            check: SimSpan::ZERO,
            adaptive,
            think_ns: 20_000,
            chunks_ns: vec![700_000, 1_300_000],
            servers: 2,
            ..Scenario::closed(11, Policy::Plain, 3, w, 8)
        };
        let (reactor, ticked) = run_counted(&sc, false);
        let (frozen, stepped) = run_counted(&sc, true);
        assert_eq!(reactor, frozen, "window {w}");
        assert_eq!(ticked.timer_fires, stepped.timer_fires, "window {w}");
    }
}

#[test]
fn reactor_ticks_idle_checks_but_charges_them() {
    // The long-idle shape really exercises the idle chains: the server
    // books thousands of empty scans, and the reactor arm polls a small
    // fraction of what stepping them as polls costs.
    let sc = Scenario {
        think_ns: 50_000,
        chunks_ns: vec![2_000_000, 3_000_000],
        ..Scenario::closed(3, Policy::Plain, 2, 1, 20)
    };
    let (frozen, stepped) = run_counted(&sc, true);
    let (reactor, ticked) = run_counted(&sc, false);
    assert_eq!(reactor, frozen);
    assert_eq!(ticked.timer_fires, stepped.timer_fires);
    let (stepped_polls, ticked_polls) = (stepped.polls, ticked.polls);
    assert!(frozen.empty_scans > 10_000, "{}", frozen.empty_scans);
    assert!(
        ticked_polls * 10 < stepped_polls,
        "{ticked_polls} polls ticking vs {stepped_polls} stepping"
    );
}
