//! A Jakiro-style key-value rig built for fault experiments.
//!
//! [`spawn_chaos_kv`] assembles the same shape as the paper's Jakiro —
//! one server machine running EREW-partitioned server threads, client
//! machines issuing routed requests over RFP — but with the fault-
//! tolerant client path: every call goes through
//! [`RfpClient::call_with_recovery`] with a QP-reconnect factory
//! installed, and every client keeps a **ledger** of acknowledged PUTs
//! so the harness can prove (or disprove) the recovery invariants:
//!
//! * **no acked write lost** — a GET must never observe a version older
//!   than the last acknowledged PUT of that key, and never `NotFound`
//!   for a key with an acknowledged PUT;
//! * **no stale data after a cold restart** — once registered memory is
//!   wiped, any pre-crash version surfacing again is corruption, not
//!   recovery.
//!
//! Keys are disjoint per client and values carry a per-client monotone
//! version number, so both invariants are checkable online without
//! coordination. Recovery time is measured per client as the span from
//! the crash instant to that client's first completed call afterwards
//! (`recovery.time` histogram).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_core::{
    connect, serve_loop, CoreSpec, FailureCause, IntegrityConfig, OverloadConfig, Reactor,
    ReactorConfig, ReactorPolicy, RecoveryConfig, RfpClient, RfpConfig, RfpServerConn,
    RfpTelemetry,
};
use rfp_kvstore::systems::apply_to_partition;
use rfp_kvstore::{partition_of, KvRequest, KvResponse, Partition};
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{
    derive_seed, FlightRecorder, HealthHub, MetricsRegistry, SimSpan, SimTime, Simulation,
    SpanRecorder, TraceLog,
};

use crate::inject::{install, InjectorSinks, Restart};
use crate::plan::FaultPlan;

/// Sizing and tuning of the chaos rig.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Client machines (one client thread each).
    pub client_machines: usize,
    /// Server threads on machine 0, each owning one store partition.
    pub server_threads: usize,
    /// Distinct keys per client (disjoint across clients).
    pub keys_per_client: usize,
    /// Fraction of operations that are PUTs.
    pub put_ratio: f64,
    /// Client recovery policy (deadline, backoff, reconnect cost).
    pub recovery: RecoveryConfig,
    /// Server overload control (admission, shedding, credits). Off by
    /// default; when on, every recovery call is deadline-stamped and the
    /// server sheds or busy-rejects instead of queueing without bound.
    pub overload: OverloadConfig,
    /// End-to-end fetch integrity (CRC + generation + canary). Off by
    /// default; when on, every fetched response is verified and corrupt
    /// images are refetched instead of surfaced — required for rigs that
    /// schedule torn-DMA or bit-flip fault windows.
    pub integrity: IntegrityConfig,
    /// Cluster timing profile.
    pub profile: ClusterProfile,
    /// Master seed for workloads and recovery jitter.
    pub seed: u64,
    /// Run the server threads as one multi-core [`Reactor`] with work
    /// stealing instead of independent serve loops. Off by default (the
    /// independent loops are the configuration the determinism pins
    /// cover); the cores chaos tests turn it on to prove the recovery
    /// invariants hold while requests migrate between cores.
    pub reactor_steal: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            client_machines: 3,
            server_threads: 2,
            keys_per_client: 8,
            put_ratio: 0.5,
            recovery: RecoveryConfig::default(),
            overload: OverloadConfig::default(),
            integrity: IntegrityConfig::default(),
            profile: ClusterProfile::paper_testbed(),
            seed: 7,
            reactor_steal: false,
        }
    }
}

/// Per-client recovery bookkeeping.
struct Ledger {
    /// key → version of the last *acknowledged* PUT.
    acked: RefCell<HashMap<Vec<u8>, u64>>,
    /// Versions below this predate the last cold wipe: observing one is
    /// stale data, not recovery.
    epoch_floor: Cell<u64>,
    /// Last version issued by this client (monotone across restarts).
    next_version: Cell<u64>,
    /// Crash instant still awaiting this client's first completed call.
    recovering: Cell<Option<SimTime>>,
}

/// Shared outcome counters, updated online by every client loop.
pub struct ChaosState {
    /// Completed calls (all kinds).
    pub completed: Cell<u64>,
    /// Acknowledged PUTs.
    pub acked_puts: Cell<u64>,
    /// Calls that exhausted their recovery budget.
    pub failed_calls: Cell<u64>,
    /// Calls whose final failure was an overload rejection
    /// (`Busy`/`Shed`) rather than a fault — a subset of
    /// [`failed_calls`](ChaosState::failed_calls).
    pub rejected_calls: Cell<u64>,
    /// Acked-write losses observed: a GET returned `NotFound` or an
    /// older version for a key with an acknowledged newer PUT.
    pub lost_acked: Cell<u64>,
    /// Stale reads observed: a GET surfaced a version from before a
    /// cold wipe.
    pub stale_reads: Cell<u64>,
    /// GETs answered `NotFound` (legitimate after a cold restart).
    pub not_found: Cell<u64>,
    /// Crash/restart cycles delivered to the rig.
    pub restarts: Cell<u64>,
    ledgers: Vec<Rc<Ledger>>,
    partitions: Vec<Rc<RefCell<Partition>>>,
    partition_cap: usize,
    server_conns: RefCell<Vec<Rc<RfpServerConn>>>,
}

impl ChaosState {
    /// Applies the restart protocol for a server restart: rebuild each
    /// connection's process state from whatever survived in its buffers,
    /// and on a cold restart also reset the application store and the
    /// clients' expectations (the data is legitimately gone).
    fn on_server_restart(&self, restart: &Restart) {
        self.restarts.set(self.restarts.get() + 1);
        if !restart.warm {
            // The store lived in registered memory: wiped with it.
            for p in &self.partitions {
                *p.borrow_mut() = Partition::new(self.partition_cap);
            }
            for ledger in &self.ledgers {
                ledger.acked.borrow_mut().clear();
                // Versions strictly below the last issued one predate
                // the wipe. The last issued version itself is admitted:
                // it may belong to the in-flight PUT, which the client
                // legitimately resubmits (and re-commits) post-wipe.
                ledger.epoch_floor.set(ledger.next_version.get());
            }
        }
        for conn in self.server_conns.borrow().iter() {
            conn.recover_after_restart();
        }
        for ledger in &self.ledgers {
            // Only the earliest unrecovered crash is timed.
            if ledger.recovering.get().is_none() {
                ledger.recovering.set(Some(restart.crashed_at));
            }
        }
    }
}

/// A running chaos rig.
pub struct ChaosKv {
    /// The cluster (machine 0 is the server) and the observability
    /// sinks. Health is keyed `client * server_threads + server_thread`.
    pub sinks: RigSinks,
    /// Shared outcome counters.
    pub state: Rc<ChaosState>,
    /// The multi-core serve reactor, present only when
    /// [`ChaosConfig::reactor_steal`] is on (per-core steal counters,
    /// skew report).
    pub reactor: Option<Reactor>,
}

impl ChaosKv {
    /// Maximum observed client recovery time, if any crash was timed.
    pub fn max_recovery_time(&self) -> Option<SimSpan> {
        // Existence check first: reading through `histogram()` would
        // *create* the instrument on a fault-free run.
        let registry = &self.sinks.registry;
        if !registry.names().iter().any(|n| n == "recovery.time") {
            return None;
        }
        registry.histogram("recovery.time").max()
    }
}

/// The cluster and observability sinks a rig in this crate wires every
/// client link to, and the injector its fault plan goes through.
pub struct RigSinks {
    /// The simulated cluster.
    pub cluster: Cluster,
    /// Unified instruments: `nic.*`, `rfp.client.*`, and — only once
    /// faults actually fire — `fault.*` / `recovery.*`.
    pub registry: MetricsRegistry,
    /// Shared trace (`chaos.fault`, `rfp.recovery`, …).
    pub trace: TraceLog,
    /// Request-lifecycle spans of the RFP connections.
    pub spans: SpanRecorder,
    /// Always-on flight recorder: `chaos.*` fault roots, `nic.*` wire
    /// events, and the clients' `recovery.*` / `overload.*` /
    /// `integrity.*` / `routing.*` reaction chains.
    pub recorder: FlightRecorder,
    /// Rolling per-connection health (one
    /// [`ConnHealth`](rfp_simnet::ConnHealth) per client link, keyed by
    /// the link index the rig connected it under).
    pub health: HealthHub,
}

impl RigSinks {
    /// A `machines`-machine cluster with every sink attached.
    pub(crate) fn new(sim: &mut Simulation, profile: &ClusterProfile, machines: usize) -> Self {
        let cluster = Cluster::new(sim, profile.clone(), machines);
        let registry = MetricsRegistry::new();
        cluster.attach_metrics(&registry);
        let sinks = RigSinks {
            cluster,
            registry,
            trace: TraceLog::new(64 * 1024),
            spans: SpanRecorder::new(1024),
            recorder: FlightRecorder::new(64 * 1024),
            health: HealthHub::default(),
        };
        sinks.cluster.attach_recorder(&sinks.recorder);
        sinks
    }

    /// Connects a client link from machine `client` to machine `server`
    /// with a QP-reconnect factory installed. The link runs remote
    /// fetch only (the recovery path does not interact with the hybrid
    /// switch), wired to every sink under link index `idx`.
    pub(crate) fn connect(
        &self,
        client: usize,
        server: usize,
        overload: &OverloadConfig,
        integrity: &IntegrityConfig,
        idx: usize,
    ) -> (RfpClient, Rc<RfpServerConn>) {
        let cluster = &self.cluster;
        let (cl, sc) = connect(
            &cluster.machine(client),
            &cluster.machine(server),
            cluster.qp(client, server),
            cluster.qp(server, client),
            RfpConfig {
                enable_mode_switch: false,
                overload: OverloadConfig {
                    // Decorrelate the per-connection backoff jitter streams.
                    seed: derive_seed(overload.seed, idx as u64),
                    ..overload.clone()
                },
                integrity: integrity.clone(),
                trace: Some(self.trace.clone()),
                telemetry: Some(RfpTelemetry {
                    registry: self.registry.clone(),
                    spans: self.spans.clone(),
                    prefix: format!("rfp.client.{idx}"),
                    track: idx as u32,
                }),
                recorder: Some(self.recorder.clone()),
                health: Some(self.health.clone()),
                conn_id: idx as u32,
                ..RfpConfig::default()
            },
        );
        cl.set_reconnect(cluster.qp_factory(client, server));
        (cl, Rc::new(sc))
    }

    /// Installs `plan`'s injector, reporting into every sink and running
    /// `on_restart` at each restart instant. Rigs install it last, so a
    /// plan that never fires leaves the already-spawned workload tasks'
    /// scheduling untouched.
    pub(crate) fn install(
        &self,
        sim: &mut Simulation,
        plan: &FaultPlan,
        on_restart: impl Fn(&Restart) + 'static,
    ) {
        install(
            sim,
            &self.cluster,
            plan,
            InjectorSinks {
                registry: Some(self.registry.clone()),
                trace: Some(self.trace.clone()),
                on_restart: Some(Rc::new(on_restart)),
                recorder: Some(self.recorder.clone()),
            },
        );
    }
}

/// Spawns the rig; pass a [`FaultPlan`] to also install its injector.
///
/// Passing `None` and passing an empty (or never-firing) plan produce
/// byte-identical metrics and trace output — the property pinned by this
/// crate's determinism tests.
pub fn spawn_chaos_kv(
    sim: &mut Simulation,
    cfg: &ChaosConfig,
    plan: Option<&FaultPlan>,
) -> ChaosKv {
    assert!(cfg.client_machines > 0, "rig needs at least one client");
    assert!(
        cfg.server_threads > 0,
        "rig needs at least one server thread"
    );
    let sinks = RigSinks::new(sim, &cfg.profile, 1 + cfg.client_machines);
    let server_m = sinks.cluster.machine(0);

    let partition_cap =
        (cfg.client_machines * cfg.keys_per_client * 2 / cfg.server_threads).max(64);
    let partitions: Vec<Rc<RefCell<Partition>>> = (0..cfg.server_threads)
        .map(|_| Rc::new(RefCell::new(Partition::new(partition_cap))))
        .collect();

    let state = Rc::new(ChaosState {
        completed: Cell::new(0),
        acked_puts: Cell::new(0),
        failed_calls: Cell::new(0),
        rejected_calls: Cell::new(0),
        lost_acked: Cell::new(0),
        stale_reads: Cell::new(0),
        not_found: Cell::new(0),
        restarts: Cell::new(0),
        ledgers: (0..cfg.client_machines)
            .map(|_| {
                Rc::new(Ledger {
                    acked: RefCell::new(HashMap::new()),
                    epoch_floor: Cell::new(0),
                    next_version: Cell::new(0),
                    recovering: Cell::new(None),
                })
            })
            .collect(),
        partitions: partitions.clone(),
        partition_cap,
        server_conns: RefCell::new(Vec::new()),
    });

    // Per server thread: the connections it polls.
    let mut server_conns: Vec<Vec<Rc<RfpServerConn>>> =
        (0..cfg.server_threads).map(|_| Vec::new()).collect();

    for c in 0..cfg.client_machines {
        let thread = sinks.cluster.machine(1 + c).thread(format!("chaos-c{c}"));
        // One connection per server thread: requests route to the
        // partition owner (EREW, as Jakiro does).
        let mut conns = Vec::with_capacity(cfg.server_threads);
        for (s, sconns) in server_conns.iter_mut().enumerate() {
            let (cl, sc) = sinks.connect(
                1 + c,
                0,
                &cfg.overload,
                &cfg.integrity,
                c * cfg.server_threads + s,
            );
            state.server_conns.borrow_mut().push(Rc::clone(&sc));
            sconns.push(sc);
            conns.push(Rc::new(cl));
        }

        let ledger = Rc::clone(&state.ledgers[c]);
        let st = Rc::clone(&state);
        let reg = sinks.registry.clone();
        let recovery = RecoveryConfig {
            seed: derive_seed(cfg.seed, 0xC0DE + c as u64),
            ..cfg.recovery.clone()
        };
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 1 + c as u64));
        let keys = cfg.keys_per_client;
        let put_ratio = cfg.put_ratio;
        let nthreads = cfg.server_threads;
        sim.spawn(async move {
            loop {
                let k = rng.gen_range(0..keys);
                let key = format!("c{c}.k{k}").into_bytes();
                let is_put = rng.gen::<f64>() < put_ratio;
                let conn = &conns[partition_of(&key, nthreads)];
                let outcome = if is_put {
                    let version = ledger.next_version.get() + 1;
                    ledger.next_version.set(version);
                    let value = version.to_le_bytes();
                    let req = KvRequest::Put {
                        key: &key,
                        value: &value,
                    }
                    .encode();
                    conn.call_with_recovery(&thread, &req, &recovery)
                        .await
                        .map(|out| (out, Some(version)))
                } else {
                    let req = KvRequest::Get { key: &key }.encode();
                    conn.call_with_recovery(&thread, &req, &recovery)
                        .await
                        .map(|out| (out, None))
                };
                match outcome {
                    Ok((out, put_version)) => {
                        st.completed.set(st.completed.get() + 1);
                        if let Some(crashed_at) = ledger.recovering.take() {
                            reg.histogram("recovery.time")
                                .record(thread.now().since(crashed_at));
                        }
                        let resp = KvResponse::decode(&out.data).expect("server response");
                        match (put_version, resp) {
                            (Some(version), KvResponse::Stored) => {
                                st.acked_puts.set(st.acked_puts.get() + 1);
                                ledger.acked.borrow_mut().insert(key.clone(), version);
                            }
                            (None, KvResponse::Found(value)) => {
                                let bytes: [u8; 8] =
                                    value.as_slice().try_into().expect("8-byte version value");
                                let version = u64::from_le_bytes(bytes);
                                if version < ledger.epoch_floor.get() {
                                    st.stale_reads.set(st.stale_reads.get() + 1);
                                }
                                if let Some(&acked) = ledger.acked.borrow().get(&key) {
                                    if version < acked {
                                        st.lost_acked.set(st.lost_acked.get() + 1);
                                    }
                                }
                            }
                            (None, KvResponse::NotFound) => {
                                st.not_found.set(st.not_found.get() + 1);
                                if ledger.acked.borrow().contains_key(&key) {
                                    st.lost_acked.set(st.lost_acked.get() + 1);
                                }
                            }
                            (_, other) => panic!("unexpected response {other:?}"),
                        }
                    }
                    Err(e) => {
                        st.failed_calls.set(st.failed_calls.get() + 1);
                        if matches!(e.last, FailureCause::Rejected(_)) {
                            st.rejected_calls.set(st.rejected_calls.get() + 1);
                        }
                    }
                }
            }
        });
    }

    // The server threads: either independent serve loops (the classic
    // shape) or one multi-core reactor with work stealing across them.
    let reactor = if cfg.reactor_steal {
        let specs = server_conns
            .into_iter()
            .enumerate()
            .map(|(s, conns)| {
                let thread = server_m.thread(format!("chaos-s{s}"));
                let partition = Rc::clone(&partitions[s]);
                let handler = move |req: &[u8]| {
                    let parsed = KvRequest::decode(req).expect("client sent well-formed request");
                    let (resp, work) = apply_to_partition(&mut partition.borrow_mut(), &parsed);
                    (resp.encode(), work)
                };
                CoreSpec {
                    thread,
                    conns,
                    handler: Box::new(handler),
                }
            })
            .collect();
        let policy = if cfg.overload.enabled {
            ReactorPolicy::Overload
        } else {
            ReactorPolicy::Plain
        };
        let reactor = Reactor::new(
            ReactorConfig {
                steal: true,
                registry: Some(sinks.registry.clone()),
                recorder: Some(sinks.recorder.clone()),
                ..ReactorConfig::default()
            },
            specs,
            SimSpan::nanos(100),
            policy,
        );
        for s in 0..cfg.server_threads {
            sim.spawn(reactor.run_core(s));
        }
        Some(reactor)
    } else {
        for (s, conns) in server_conns.into_iter().enumerate() {
            let thread = server_m.thread(format!("chaos-s{s}"));
            let partition = Rc::clone(&partitions[s]);
            let handler = move |req: &[u8]| {
                let parsed = KvRequest::decode(req).expect("client sent well-formed request");
                let (resp, work) = apply_to_partition(&mut partition.borrow_mut(), &parsed);
                (resp.encode(), work)
            };
            sim.spawn(serve_loop(thread, conns, handler, SimSpan::nanos(100)));
        }
        None
    };

    if let Some(plan) = plan {
        let hook_state = Rc::clone(&state);
        sinks.install(sim, plan, move |restart: &Restart| {
            if restart.machine == 0 {
                hook_state.on_server_restart(restart);
            }
        });
    }

    ChaosKv {
        sinks,
        state,
        reactor,
    }
}
