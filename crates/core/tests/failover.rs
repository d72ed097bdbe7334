//! Replica-router failover: epoch-fenced switchover between two
//! live server endpoints.

use std::cell::Cell;
use std::rc::Rc;

use rfp_core::{
    connect, serve_loop, FailoverConfig, GrayConfig, IntegrityConfig, RecoveryConfig,
    ReplicaClient, RfpConfig, RfpServerConn, RfpTelemetry,
};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{MetricsRegistry, RetryPolicy, SimSpan, Simulation, SpanRecorder};

/// One client machine plus two server machines, both echoing; the
/// router prefers machine 1 (replica 0) and falls back to machine 2.
struct Rig {
    sim: Simulation,
    cluster: Cluster,
    router: Rc<ReplicaClient>,
    client_thread: Rc<ThreadCtx>,
    server_conns: Vec<Rc<RfpServerConn>>,
}

fn rig() -> Rig {
    let mut sim = Simulation::new(23);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 3);
    let client_m = cluster.machine(0);
    let mut replicas = Vec::new();
    let mut server_conns = Vec::new();
    for s in 1..3usize {
        let server_m = cluster.machine(s);
        let (cl, sc) = connect(
            &client_m,
            &server_m,
            cluster.qp(0, s),
            cluster.qp(s, 0),
            RfpConfig {
                enable_mode_switch: false,
                ..RfpConfig::default()
            },
        );
        cl.set_reconnect(cluster.qp_factory(0, s));
        let sc = Rc::new(sc);
        let st = server_m.thread(format!("server-{s}"));
        sim.spawn(serve_loop(
            st,
            vec![Rc::clone(&sc)],
            |req: &[u8]| (req.to_vec(), SimSpan::nanos(200)),
            SimSpan::nanos(100),
        ));
        server_conns.push(sc);
        replicas.push(Rc::new(cl));
    }
    let router = Rc::new(ReplicaClient::new(
        replicas,
        FailoverConfig {
            recovery: RecoveryConfig {
                // Short budget so a dead replica is abandoned quickly.
                retry: RetryPolicy::exponential(3, SimSpan::micros(5), SimSpan::micros(50), 0.2),
                ..RecoveryConfig::default()
            },
            max_failovers: 4,
            ..FailoverConfig::default()
        },
    ));
    Rig {
        client_thread: client_m.thread("client"),
        sim,
        cluster,
        router,
        server_conns,
    }
}

#[test]
fn healthy_run_sticks_to_the_primary() {
    let mut r = rig();
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..20u32 {
            let out = router.call(&t, &i.to_le_bytes()).await.expect("healthy");
            assert_eq!(out.data, i.to_le_bytes());
            d.set(d.get() + 1);
        }
    });
    r.sim.run_for(SimSpan::millis(5));
    assert_eq!(done.get(), 20);
    assert_eq!(r.router.active(), 0);
    assert_eq!(r.router.failovers(), 0);
}

#[test]
fn primary_crash_fails_over_to_the_backup() {
    let mut r = rig();
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    // Promote the backup before the crash, as a failure detector would:
    // its responses then carry epoch 1.
    r.server_conns[1].set_epoch(1);
    r.cluster.machine(1).faults().set_crashed(true);
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..10u32 {
            let out = router.call(&t, &i.to_le_bytes()).await.expect("failover");
            assert_eq!(out.data, i.to_le_bytes());
            d.set(d.get() + 1);
        }
    });
    r.sim.run_for(SimSpan::millis(20));
    assert_eq!(done.get(), 10);
    assert_eq!(r.router.active(), 1);
    assert!(r.router.failovers() >= 1);
    // The router adopted the promoted replica's epoch...
    assert_eq!(r.router.known_epoch(), 1);
    // ...so if the deposed primary came back at epoch 0, nothing it
    // answers would pass the router's acceptance check.
}

#[test]
fn epoch_fence_self_heals_without_failover() {
    let mut r = rig();
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    // The active replica moves to epoch 3 (say, after a failover chain
    // elsewhere); the router's first epoch-0 call is fenced, adopts the
    // server's epoch from the `Fenced` verdict, and resubmits — all
    // inside one recovery loop, with no replica switch.
    r.server_conns[0].set_epoch(3);
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        let out = router.call(&t, b"fence-me").await.expect("heals");
        assert_eq!(out.data, b"fence-me");
        d.set(true);
    });
    r.sim.run_for(SimSpan::millis(5));
    assert!(done.get());
    assert_eq!(r.router.failovers(), 0);
    assert_eq!(r.router.known_epoch(), 3);
    assert!(r.server_conns[0].rejected_fenced() >= 1);
}

#[test]
fn backoff_streak_resets_after_a_successful_failover() {
    let mut r = rig();
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    r.server_conns[1].set_epoch(1);
    r.cluster.machine(1).faults().set_crashed(true);
    let done = Rc::new(Cell::new(false));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        // The first call burns the whole retry budget on the dead
        // primary (escalating the failure streak) before the failover
        // succeeds on the backup.
        let out = router.call(&t, b"streak").await.expect("failover");
        assert_eq!(out.data, b"streak");
        d.set(true);
    });
    r.sim.run_for(SimSpan::millis(20));
    assert!(done.get());
    assert!(r.router.failovers() >= 1);
    // The success must clear the escalated-backoff state: otherwise
    // the next transient error after a clean failover starts from the
    // streak the dead replica left behind and over-backs-off.
    assert_eq!(r.router.fail_streak(), 0);
}

/// A hedged read that discarded corrupt fetches says so: its
/// `integrity_retries` equals the rise of its connection's
/// `fetch.integrity_retries` counter. The routed replica sits under a
/// bit-flip window; the hedge leg races on a healthy but slow replica
/// and never wins, so every discard belongs to the leg that answers.
#[test]
fn hedged_reads_report_their_discarded_fetches() {
    let mut sim = Simulation::new(31);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 3);
    let client_m = cluster.machine(0);
    let registries = [MetricsRegistry::new(), MetricsRegistry::new()];
    let mut replicas = Vec::new();
    for s in 1..3usize {
        let (cl, sc) = connect(
            &client_m,
            &cluster.machine(s),
            cluster.qp(0, s),
            cluster.qp(s, 0),
            RfpConfig {
                enable_mode_switch: false,
                integrity: IntegrityConfig {
                    enabled: true,
                    ..IntegrityConfig::default()
                },
                telemetry: Some(RfpTelemetry {
                    registry: registries[s - 1].clone(),
                    spans: SpanRecorder::new(16),
                    prefix: format!("rfp.client.{s}"),
                    track: s as u32,
                }),
                ..RfpConfig::default()
            },
        );
        cl.set_reconnect(cluster.qp_factory(0, s));
        let process = if s == 1 {
            SimSpan::nanos(200)
        } else {
            SimSpan::micros(200)
        };
        sim.spawn(serve_loop(
            cluster.machine(s).thread(format!("server-{s}")),
            vec![Rc::new(sc)],
            move |req: &[u8]| (req.to_vec(), process),
            SimSpan::nanos(100),
        ));
        replicas.push(Rc::new(cl));
    }
    cluster.machine(1).faults().set_bitflip(0.3);
    let router = ReplicaClient::new(
        replicas,
        FailoverConfig {
            gray: GrayConfig {
                enabled: true,
                scored_routing: false,
                hedging: true,
                ..GrayConfig::default()
            },
            ..FailoverConfig::default()
        },
    );
    let t = client_m.thread("client");
    let (discarded, calls) = (Rc::new(Cell::new(0u32)), Rc::new(Cell::new(0u32)));
    let (d, c) = (Rc::clone(&discarded), Rc::clone(&calls));
    let reg = registries[0].clone();
    sim.spawn(async move {
        for i in 0..40u8 {
            // Responses fill most of the `F`-byte fetch, so most flips
            // land inside the verified image.
            let req = vec![i; 200];
            let before = reg.counter("fetch.integrity_retries").get();
            let out = router.call_hedged(&t, &req).await.expect("hedged read");
            assert_eq!(out.data, req);
            let rise = reg.counter("fetch.integrity_retries").get() - before;
            assert_eq!(out.info.integrity_retries as u64, rise, "call {i}");
            d.set(d.get() + out.info.integrity_retries);
            c.set(c.get() + 1);
        }
    });
    sim.run_for(SimSpan::millis(20));
    assert_eq!(calls.get(), 40);
    assert!(
        discarded.get() > 0,
        "the bit-flip window corrupted no fetch"
    );
}
