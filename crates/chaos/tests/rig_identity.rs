//! The merged replicated rig ≡ the two rigs it replaced, byte for byte.
//!
//! `spawn_replicated_kv` folds the failover rig and the gray-failure
//! rig into one. The contract is that each preset replays its old rig
//! *event for event*. This test pins that the way `reactor_identity`
//! pins the reactor: frozen copies of both pre-merge rigs (below) run
//! against the merged rig
//! under randomized knobs — preset, seed, client count, ack policy,
//! gray mode, hedged reads, and one fault of every family aimed at the
//! primary or the backup — and every observable surface must compare
//! equal: final clock, registry CSV, trace and flight-recorder dumps,
//! the health report, span export, the operation history and read
//! latencies, every state, role and router counter, both stores, and
//! every machine's NIC counters.
//!
//! The frozen copies differ from the old source only in their `crate::`
//! paths and in building the primary/backup pair through
//! `ReplicaPair` (lines marked `PAIR`): the serve loops are private to
//! `rfp-kvstore`, and the builder creates the stores, roles and ship
//! link and spawns the loops in the order these rigs did by hand.
//!
//! One difference is intended and patched into the frozen failover
//! copy, marked `INTENDED DIFFERENCE`: the merged rig gives the
//! failover preset the gray rig's restart hook, so a restarted backup
//! (machine 1) also recovers its client connections and the
//! replication connection. The frozen failover copy's hook only ever
//! ran for machine 0, so the patch changes nothing unless machine 1
//! restarts.

use std::fmt::Write as _;
use std::rc::Rc;

use proptest::prelude::*;

use rfp_chaos::{spawn_replicated_kv, FaultPlan, ReplicatedConfig};
use rfp_core::{
    FailoverConfig, GrayConfig, IntegrityConfig, OverloadConfig, ReplicaClient, RfpConfig,
    RfpTelemetry,
};
use rfp_kvstore::replica::{AckPolicy, BackupRole, PrimaryRole, ReplicationConfig};
use rfp_kvstore::Partition;
use rfp_rnic::Cluster;
use rfp_simnet::{
    derive_seed, FlightRecorder, HealthHub, MetricsRegistry, SimSpan, SimTime, Simulation,
    SpanRecorder, TraceLog,
};
use rfp_workload::HistEntry;

/// Frozen copy of the rigs' shared link config (`rig_rfp_cfg`).
#[allow(clippy::too_many_arguments)]
fn rig_rfp_cfg(
    registry: &MetricsRegistry,
    spans: &SpanRecorder,
    trace: &TraceLog,
    recorder: &FlightRecorder,
    health: &HealthHub,
    overload: &OverloadConfig,
    integrity: &IntegrityConfig,
    idx: usize,
) -> RfpConfig {
    RfpConfig {
        enable_mode_switch: false,
        overload: OverloadConfig {
            // Decorrelate the per-connection backoff jitter streams.
            seed: derive_seed(overload.seed, idx as u64),
            ..overload.clone()
        },
        integrity: integrity.clone(),
        trace: Some(trace.clone()),
        telemetry: Some(RfpTelemetry {
            registry: registry.clone(),
            spans: spans.clone(),
            prefix: format!("rfp.client.{idx}"),
            track: idx as u32,
        }),
        recorder: Some(recorder.clone()),
        health: Some(health.clone()),
        conn_id: idx as u32,
        ..RfpConfig::default()
    }
}

/// Frozen copy of the failover rig (`spawn_failover_kv`) as it stood
/// before the merge, with the one intended difference marked
/// `INTENDED DIFFERENCE`.
#[allow(dead_code)]
mod frozen_failover {
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;
    use std::rc::Rc;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use rfp_core::{
        connect, FailoverConfig, IntegrityConfig, OverloadConfig, ReplicaClient, RfpClient,
        RfpServerConn,
    };
    use rfp_kvstore::replica::{BackupRole, PrimaryRole, ReplicaPair, ReplicationConfig};
    use rfp_kvstore::{KvRequest, KvResponse, Partition};
    use rfp_rnic::{Cluster, ClusterProfile};
    use rfp_simnet::{
        derive_seed, FlightRecorder, HealthHub, MetricsRegistry, SimSpan, SimTime, Simulation,
        SpanRecorder, TraceLog,
    };
    use rfp_workload::{HistEntry, RegOp};

    use super::rig_rfp_cfg;
    use rfp_chaos::FaultPlan;
    use rfp_chaos::{install, InjectorSinks, Restart};

    /// The epoch a promoted backup fences at (the rig promotes at most
    /// once per run).
    pub const PROMOTED_EPOCH: u16 = 1;

    /// Sizing and tuning of the failover rig.
    #[derive(Clone, Debug)]
    pub struct FailoverChaosConfig {
        /// Client machines (one client thread each), on machines `2..`.
        pub clients: usize,
        /// Keys *written* per client (reads roam every client's keys).
        pub keys_per_client: usize,
        /// Operations each client issues before stopping. Bounded so the
        /// per-key histories stay inside the checker's search capacity.
        pub ops_per_client: usize,
        /// Fraction of operations that are PUTs.
        pub put_ratio: f64,
        /// Primary-side replication tuning (the default turns it on; a
        /// replication-off rig is the tax baseline, not a failover study).
        pub replication: ReplicationConfig,
        /// Client-side failover policy (retry budget per replica, maximum
        /// re-homings per call).
        pub failover: FailoverConfig,
        /// Cluster timing profile.
        pub profile: ClusterProfile,
        /// Master seed for workloads and recovery jitter.
        pub seed: u64,
    }

    impl Default for FailoverChaosConfig {
        fn default() -> Self {
            FailoverChaosConfig {
                clients: 3,
                keys_per_client: 4,
                ops_per_client: 60,
                put_ratio: 0.5,
                replication: ReplicationConfig {
                    enabled: true,
                    ..ReplicationConfig::default()
                },
                // A short per-replica retry budget: the router should stop
                // flogging a dead primary and re-home within a bounded
                // handful of attempts, not ride out the full single-server
                // recovery schedule first.
                failover: FailoverConfig {
                    recovery: rfp_core::RecoveryConfig {
                        retry: rfp_simnet::RetryPolicy::exponential(
                            4,
                            SimSpan::micros(10),
                            SimSpan::micros(200),
                            0.2,
                        ),
                        ..rfp_core::RecoveryConfig::default()
                    },
                    ..FailoverConfig::default()
                },
                profile: ClusterProfile::paper_testbed(),
                seed: 11,
            }
        }
    }

    /// Shared outcome state, updated online by every client loop.
    pub struct FailoverState {
        /// Completed calls (all kinds).
        pub completed: Cell<u64>,
        /// Acknowledged PUTs.
        pub acked_puts: Cell<u64>,
        /// Calls that exhausted the router's whole failover budget.
        pub failed_calls: Cell<u64>,
        /// Acked-write losses: a GET observed `NotFound` or an older
        /// version for a key whose newer PUT was acked before the GET began.
        pub lost_acked: Cell<u64>,
        /// Stale reads: a GET observed a version older than one some
        /// earlier-*completed* read had already seen at the GET's start.
        pub stale_reads: Cell<u64>,
        /// GETs answered `NotFound`.
        pub not_found: Cell<u64>,
        /// Clients that finished their op budget.
        pub done_clients: Cell<usize>,
        /// When the backup was promoted, if it was.
        pub promoted_at: Cell<Option<SimTime>>,
        /// key id → value of the last acked PUT (single writer per key and
        /// per-client-monotone versions make the max the latest).
        acked: RefCell<HashMap<u64, u64>>,
        /// key id → newest value any completed read has observed.
        observed: RefCell<HashMap<u64, u64>>,
        /// Full operation history, in completion/abandonment order.
        history: RefCell<Vec<HistEntry>>,
        /// Per-client crash instant awaiting the first completed call.
        recovering: Vec<Cell<Option<SimTime>>>,
    }

    impl FailoverState {
        /// The recorded history (for [`rfp_workload::check_history`]).
        pub fn history(&self) -> Vec<HistEntry> {
            self.history.borrow().clone()
        }

        /// Largest number of operations landed on any single key.
        pub fn max_ops_per_key(&self) -> usize {
            let mut per_key: HashMap<u64, usize> = HashMap::new();
            for e in self.history.borrow().iter() {
                *per_key.entry(e.key).or_default() += 1;
            }
            per_key.values().copied().max().unwrap_or(0)
        }
    }

    /// A running failover rig.
    pub struct FailoverKv {
        /// The simulated cluster (0 = primary, 1 = backup, `2..` clients).
        pub cluster: Cluster,
        /// Unified instruments (`rfp.client.*`, `fault.*`, `recovery.*`,
        /// `failover.time`).
        pub registry: MetricsRegistry,
        /// Shared trace.
        pub trace: TraceLog,
        /// Request-lifecycle spans.
        pub spans: SpanRecorder,
        /// Flight recorder: `chaos.*` fault roots and the clients'
        /// `recovery.*` reaction chains (`recovery.failover` among them).
        pub recorder: FlightRecorder,
        /// Rolling per-connection health (keyed `client * 2 + replica`).
        pub health: HealthHub,
        /// Shared outcome state.
        pub state: Rc<FailoverState>,
        /// One router per client, in machine order.
        pub routers: Vec<Rc<ReplicaClient>>,
        /// Primary-side replication bookkeeping.
        pub primary_role: Rc<PrimaryRole>,
        /// Backup-side replication bookkeeping.
        pub backup_role: Rc<BackupRole>,
        /// The primary's store.
        pub primary_part: Rc<RefCell<Partition>>,
        /// The backup's store.
        pub backup_part: Rc<RefCell<Partition>>,
    }

    impl FailoverKv {
        /// Total replica re-homings across all clients.
        pub fn total_failovers(&self) -> u64 {
            self.routers.iter().map(|r| r.failovers()).sum()
        }

        /// Maximum observed client failover time, if any fault was timed.
        pub fn max_failover_time(&self) -> Option<SimSpan> {
            if !self.registry.names().iter().any(|n| n == "failover.time") {
                return None;
            }
            self.registry.histogram("failover.time").max()
        }
    }

    /// Spawns the rig; pass a [`FaultPlan`] to install its injector and
    /// `promote_at` to schedule the failure detector's promotion of the
    /// backup (crash scenarios only — a partitioned primary is not dead).
    pub fn spawn_failover_kv(
        sim: &mut Simulation,
        cfg: &FailoverChaosConfig,
        plan: Option<&FaultPlan>,
        promote_at: Option<SimTime>,
    ) -> FailoverKv {
        assert!(cfg.clients > 0, "rig needs at least one client");
        assert!(cfg.keys_per_client > 0, "rig needs at least one key");
        let cluster = Cluster::new(sim, cfg.profile.clone(), 2 + cfg.clients);
        let (primary_m, backup_m) = (cluster.machine(0), cluster.machine(1));
        let registry = MetricsRegistry::new();
        cluster.attach_metrics(&registry);
        let trace = TraceLog::new(64 * 1024);
        let spans = SpanRecorder::new(1024);
        let recorder = FlightRecorder::new(64 * 1024);
        let health = HealthHub::default();
        cluster.attach_recorder(&recorder);

        let partition_cap = (cfg.clients * cfg.keys_per_client * 2).max(64);
        // PAIR: built through `ReplicaPair` (see the header).
        let mut pair = ReplicaPair::connect(&cluster, partition_cap);
        let primary_part = Rc::clone(&pair.primary_part);
        let backup_part = Rc::clone(&pair.backup_part);
        let primary_role = Rc::clone(&pair.primary_role);
        let backup_role = Rc::clone(&pair.backup_role);

        let state = Rc::new(FailoverState {
            completed: Cell::new(0),
            acked_puts: Cell::new(0),
            failed_calls: Cell::new(0),
            lost_acked: Cell::new(0),
            stale_reads: Cell::new(0),
            not_found: Cell::new(0),
            done_clients: Cell::new(0),
            promoted_at: Cell::new(None),
            acked: RefCell::new(HashMap::new()),
            observed: RefCell::new(HashMap::new()),
            history: RefCell::new(Vec::new()),
            recovering: (0..cfg.clients).map(|_| Cell::new(None)).collect(),
        });

        let repl_conn = Rc::clone(&pair.repl_conn);

        let mut primary_conns: Vec<Rc<RfpServerConn>> = Vec::new();
        let mut backup_conns: Vec<Rc<RfpServerConn>> = Vec::new();
        let mut routers: Vec<Rc<ReplicaClient>> = Vec::new();
        let overload = OverloadConfig::default();
        let integrity = IntegrityConfig::default();

        for c in 0..cfg.clients {
            let client_m = cluster.machine(2 + c);
            let thread = client_m.thread(format!("failover-c{c}"));
            let mut replicas: Vec<Rc<RfpClient>> = Vec::new();
            for (replica, server_m) in [(0usize, &primary_m), (1usize, &backup_m)] {
                let (cl, sc) = connect(
                    &client_m,
                    server_m,
                    cluster.qp(2 + c, replica),
                    cluster.qp(replica, 2 + c),
                    rig_rfp_cfg(
                        &registry,
                        &spans,
                        &trace,
                        &recorder,
                        &health,
                        &overload,
                        &integrity,
                        c * 2 + replica,
                    ),
                );
                cl.set_reconnect(cluster.qp_factory(2 + c, replica));
                let sc = Rc::new(sc);
                if replica == 0 {
                    primary_conns.push(sc);
                } else {
                    backup_conns.push(sc);
                }
                replicas.push(Rc::new(cl));
            }
            let router = Rc::new(ReplicaClient::new(
                replicas,
                FailoverConfig {
                    recovery: rfp_core::RecoveryConfig {
                        seed: derive_seed(cfg.seed, 0xFA11 + c as u64),
                        ..cfg.failover.recovery.clone()
                    },
                    ..cfg.failover.clone()
                },
            ));
            routers.push(Rc::clone(&router));

            let st = Rc::clone(&state);
            let reg = registry.clone();
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 1 + c as u64));
            let keys = cfg.keys_per_client;
            let total_keys = cfg.clients * cfg.keys_per_client;
            let ops = cfg.ops_per_client;
            let put_ratio = cfg.put_ratio;
            sim.spawn(async move {
                let mut version = 0u64;
                for _ in 0..ops {
                    let is_put = rng.gen::<f64>() < put_ratio;
                    // Writers own a disjoint key range; readers roam.
                    let key_id = if is_put {
                        (c * keys + rng.gen_range(0..keys)) as u64
                    } else {
                        rng.gen_range(0..total_keys) as u64
                    };
                    let key = format!("k{key_id}").into_bytes();
                    let (req, value) = if is_put {
                        version += 1;
                        let value = ((c as u64) << 32) | version;
                        (
                            KvRequest::Put {
                                key: &key,
                                value: &value.to_le_bytes(),
                            }
                            .encode(),
                            Some(value),
                        )
                    } else {
                        (KvRequest::Get { key: &key }.encode(), None)
                    };
                    // Invariant baselines snapshotted at call start: only
                    // what was already settled *before* this op began can
                    // convict the response.
                    let acked_floor = st.acked.borrow().get(&key_id).copied();
                    let observed_floor = st.observed.borrow().get(&key_id).copied();
                    let start = thread.now().as_nanos();
                    match router.call(&thread, &req).await {
                        Ok(out) => {
                            let end = thread.now().as_nanos();
                            st.completed.set(st.completed.get() + 1);
                            if let Some(crashed_at) = st.recovering[c].take() {
                                reg.histogram("failover.time")
                                    .record(thread.now().since(crashed_at));
                            }
                            let resp = KvResponse::decode(&out.data).expect("server response");
                            let op = match (value, resp) {
                                (Some(v), KvResponse::Stored) => {
                                    st.acked_puts.set(st.acked_puts.get() + 1);
                                    st.acked.borrow_mut().insert(key_id, v);
                                    RegOp::Write(v)
                                }
                                (None, KvResponse::Found(bytes)) => {
                                    let raw: [u8; 8] =
                                        bytes.as_slice().try_into().expect("8-byte value");
                                    let v = u64::from_le_bytes(raw);
                                    if acked_floor.is_some_and(|floor| v < floor) {
                                        st.lost_acked.set(st.lost_acked.get() + 1);
                                    }
                                    if observed_floor.is_some_and(|floor| v < floor) {
                                        st.stale_reads.set(st.stale_reads.get() + 1);
                                    }
                                    let mut obs = st.observed.borrow_mut();
                                    let slot = obs.entry(key_id).or_insert(v);
                                    *slot = (*slot).max(v);
                                    RegOp::Read(Some(v))
                                }
                                (None, KvResponse::NotFound) => {
                                    st.not_found.set(st.not_found.get() + 1);
                                    if acked_floor.is_some() {
                                        st.lost_acked.set(st.lost_acked.get() + 1);
                                    }
                                    RegOp::Read(None)
                                }
                                (_, other) => panic!("unexpected response {other:?}"),
                            };
                            st.history.borrow_mut().push(HistEntry {
                                key: key_id,
                                client: c as u32,
                                start,
                                end: Some(end),
                                op,
                            });
                        }
                        Err(_) => {
                            st.failed_calls.set(st.failed_calls.get() + 1);
                            // A write that exhausted its budget may still
                            // have taken effect: record it pending. A
                            // failed read observed nothing — drop it.
                            if let Some(v) = value {
                                st.history.borrow_mut().push(HistEntry {
                                    key: key_id,
                                    client: c as u32,
                                    start,
                                    end: None,
                                    op: RegOp::Write(v),
                                });
                            }
                        }
                    }
                }
                st.done_clients.set(st.done_clients.get() + 1);
            });
        }

        // PAIR: the serve loops start where this rig spawned them.
        pair.primary_conns = primary_conns.clone();
        pair.backup_conns = backup_conns.clone();
        pair.spawn(sim, &cluster, cfg.replication.clone());

        // The failure detector: promote the backup into the next epoch at a
        // fixed (deterministic) instant after the crash.
        if let Some(at) = promote_at {
            let handle = cluster.handle().clone();
            let role = Rc::clone(&backup_role);
            let conns = backup_conns.clone();
            let st = Rc::clone(&state);
            let tr = trace.clone();
            sim.spawn(async move {
                let now = handle.now();
                if at > now {
                    handle.sleep(at.since(now)).await;
                }
                role.promote(&conns, PROMOTED_EPOCH);
                st.promoted_at.set(Some(handle.now()));
                tr.record(
                    handle.now(),
                    "chaos.fault",
                    format!("backup promoted to epoch {PROMOTED_EPOCH}"),
                );
            });
        }

        // Mark every client as "recovering" at the first fault instant so
        // the failover.time histogram measures fault -> first completed
        // call. Injector goes in last, as in the chaos harness.
        if let Some(plan) = plan {
            if let Some(first_at) = plan.events().iter().map(|e| e.at).min() {
                let handle = cluster.handle().clone();
                let st = Rc::clone(&state);
                sim.spawn(async move {
                    let now = handle.now();
                    if first_at > now {
                        handle.sleep(first_at.since(now)).await;
                    }
                    let at = handle.now();
                    for cell in &st.recovering {
                        cell.set(Some(at));
                    }
                });
            }
            let hook_conns = primary_conns;
            // INTENDED DIFFERENCE: the merged rig restarts the backup the
            // way the gray rig always did — its client conns and the
            // replication conn recover too.
            let hook_backup = backup_conns;
            let hook_repl = Rc::clone(&repl_conn);
            install(
                sim,
                &cluster,
                plan,
                InjectorSinks {
                    registry: Some(registry.clone()),
                    trace: Some(trace.clone()),
                    on_restart: Some(Rc::new(move |restart: &Restart| {
                        // A restarted ex-primary rebuilds its connection
                        // process state — but it is *deposed*: it comes
                        // back at its old epoch and the fence keeps it
                        // from serving promoted-era clients.
                        if restart.machine == 0 {
                            for conn in &hook_conns {
                                conn.recover_after_restart();
                            }
                        }
                        // INTENDED DIFFERENCE (see above).
                        if restart.machine == 1 {
                            for conn in &hook_backup {
                                conn.recover_after_restart();
                            }
                            hook_repl.recover_after_restart();
                        }
                    })),
                    recorder: Some(recorder.clone()),
                },
            );
        }

        FailoverKv {
            cluster,
            registry,
            trace,
            spans,
            recorder,
            health,
            state,
            routers,
            primary_role,
            backup_role,
            primary_part,
            backup_part,
        }
    }
}

/// Frozen copy of the gray-failure rig (`spawn_grayfail_kv`) as it
/// stood before the merge.
#[allow(dead_code)]
mod frozen_gray {
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;
    use std::rc::Rc;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use rfp_core::{
        connect, FailoverConfig, IntegrityConfig, OverloadConfig, ReplicaClient, RfpClient,
        RfpServerConn,
    };
    use rfp_kvstore::replica::{BackupRole, PrimaryRole, ReplicaPair, ReplicationConfig};
    use rfp_kvstore::{KvRequest, KvResponse, Partition};
    use rfp_rnic::{Cluster, ClusterProfile};
    use rfp_simnet::{
        derive_seed, FlightRecorder, HealthHub, MetricsRegistry, SimSpan, SimTime, Simulation,
        SpanRecorder, TraceLog,
    };
    use rfp_workload::{HistEntry, RegOp};

    use super::rig_rfp_cfg;
    use rfp_chaos::FaultPlan;
    use rfp_chaos::{install, InjectorSinks, Restart};

    /// Sizing and tuning of the gray-failure rig.
    #[derive(Clone, Debug)]
    pub struct GrayChaosConfig {
        /// Client machines (one client thread each), on machines `2..`.
        pub clients: usize,
        /// Keys per client; each client both writes and reads only its own.
        pub keys_per_client: usize,
        /// Operations each client issues before stopping.
        pub ops_per_client: usize,
        /// Fraction of operations that are PUTs (always routed `call`,
        /// never hedged — mutations anchor on the primary).
        pub put_ratio: f64,
        /// Whether GETs go through [`ReplicaClient::call_hedged`] (the
        /// gray-routed read path) or plain [`ReplicaClient::call`]. The
        /// sweep's baseline cell turns this off together with the gray
        /// config so the run is byte-identical to the pre-gray router.
        pub hedged_reads: bool,
        /// Primary-side replication tuning (`Sync` ack on — standby reads
        /// lean on acked ⇒ applied-at-backup).
        pub replication: ReplicationConfig,
        /// Client-side router policy; `failover.gray` is the subsystem
        /// under test.
        pub failover: FailoverConfig,
        /// Cluster timing profile.
        pub profile: ClusterProfile,
        /// Master seed for workloads and recovery jitter.
        pub seed: u64,
    }

    impl Default for GrayChaosConfig {
        fn default() -> Self {
            GrayChaosConfig {
                clients: 3,
                keys_per_client: 4,
                ops_per_client: 400,
                put_ratio: 0.3,
                hedged_reads: true,
                replication: ReplicationConfig {
                    enabled: true,
                    ..ReplicationConfig::default()
                },
                failover: FailoverConfig {
                    recovery: rfp_core::RecoveryConfig {
                        retry: rfp_simnet::RetryPolicy::exponential(
                            6,
                            SimSpan::micros(10),
                            SimSpan::micros(200),
                            0.2,
                        ),
                        ..rfp_core::RecoveryConfig::default()
                    },
                    ..FailoverConfig::default()
                },
                profile: ClusterProfile::paper_testbed(),
                seed: 23,
            }
        }
    }

    /// Shared outcome state, updated online by every client loop.
    pub struct GrayState {
        /// Completed calls (all kinds).
        pub completed: Cell<u64>,
        /// Acknowledged PUTs.
        pub acked_puts: Cell<u64>,
        /// PUT calls issued (acked or not) — the duplicate-apply ceiling.
        pub issued_puts: Cell<u64>,
        /// Calls that exhausted the router's whole budget.
        pub failed_calls: Cell<u64>,
        /// Acked-write losses (see the failover rig; must stay 0 here).
        pub lost_acked: Cell<u64>,
        /// Reads that ran backwards vs. an earlier-completed read.
        pub stale_reads: Cell<u64>,
        /// GETs answered `NotFound`.
        pub not_found: Cell<u64>,
        /// Clients that finished their op budget.
        pub done_clients: Cell<usize>,
        /// key id → value of the last acked PUT.
        acked: RefCell<HashMap<u64, u64>>,
        /// key id → newest value any completed read observed.
        observed: RefCell<HashMap<u64, u64>>,
        /// Full operation history, in completion/abandonment order.
        history: RefCell<Vec<HistEntry>>,
        /// Every completed GET as `(start_ns, latency_ns)`.
        read_lats: RefCell<Vec<(u64, u64)>>,
    }

    impl GrayState {
        /// The recorded history (for [`rfp_workload::check_history`]).
        pub fn history(&self) -> Vec<HistEntry> {
            self.history.borrow().clone()
        }

        /// Read latencies of GETs that *started* at or after `from` —
        /// the measurement-phase slice.
        pub fn read_lats_since(&self, from: SimTime) -> Vec<u64> {
            let floor = from.as_nanos();
            self.read_lats
                .borrow()
                .iter()
                .filter(|(start, _)| *start >= floor)
                .map(|(_, lat)| *lat)
                .collect()
        }

        /// p99 read latency (ns) over GETs started at or after `from`;
        /// `None` with fewer than 10 samples.
        pub fn read_p99_since(&self, from: SimTime) -> Option<u64> {
            let mut lats = self.read_lats_since(from);
            if lats.len() < 10 {
                return None;
            }
            lats.sort_unstable();
            Some(lats[(lats.len() * 99) / 100 - 1])
        }

        /// Largest number of operations landed on any single key.
        pub fn max_ops_per_key(&self) -> usize {
            let mut per_key: HashMap<u64, usize> = HashMap::new();
            for e in self.history.borrow().iter() {
                *per_key.entry(e.key).or_default() += 1;
            }
            per_key.values().copied().max().unwrap_or(0)
        }
    }

    /// A running gray-failure rig.
    pub struct GrayKv {
        /// The simulated cluster (0 = primary, 1 = backup, `2..` clients).
        pub cluster: Cluster,
        /// Unified instruments (`rfp.client.*`, `fault.*`, `recovery.*`,
        /// `routing.*`).
        pub registry: MetricsRegistry,
        /// Shared trace.
        pub trace: TraceLog,
        /// Request-lifecycle spans.
        pub spans: SpanRecorder,
        /// Flight recorder: `chaos.slow_link` / `chaos.flaky_link` /
        /// `chaos.slow_server` fault roots and the router's
        /// `routing.demote` / `recovery.hedge.*` reaction chains.
        pub recorder: FlightRecorder,
        /// Rolling per-connection health (keyed `client * 2 + replica`).
        pub health: HealthHub,
        /// Shared outcome state.
        pub state: Rc<GrayState>,
        /// One router per client, in machine order.
        pub routers: Vec<Rc<ReplicaClient>>,
        /// Primary-side replication bookkeeping (and the apply ledger).
        pub primary_role: Rc<PrimaryRole>,
        /// Backup-side replication bookkeeping (and the refusal ledger).
        pub backup_role: Rc<BackupRole>,
        /// The primary's store.
        pub primary_part: Rc<RefCell<Partition>>,
        /// The backup's store.
        pub backup_part: Rc<RefCell<Partition>>,
    }

    impl GrayKv {
        /// Total replica re-homings across all clients.
        pub fn total_failovers(&self) -> u64 {
            self.routers.iter().map(|r| r.failovers()).sum()
        }

        /// `(issued, won, wasted)` hedge legs across all routers.
        pub fn total_hedges(&self) -> (u64, u64, u64) {
            let mut t = (0, 0, 0);
            for r in &self.routers {
                let (i, w, x) = r.hedges();
                t.0 += i;
                t.1 += w;
                t.2 += x;
            }
            t
        }

        /// Retry-budget tokens consumed and grants denied, summed.
        pub fn budget_totals(&self) -> (u64, u64) {
            let mut t = (0, 0);
            for r in &self.routers {
                t.0 += r.budget().consumed();
                t.1 += r.budget().denied();
            }
            t
        }
    }

    /// Spawns the rig; pass a [`FaultPlan`] carrying `slow_link` /
    /// `flaky_link` / `slow_server` windows to install its injector. The
    /// backup is never promoted — gray faults are exactly the ones a crash
    /// detector cannot see.
    pub fn spawn_grayfail_kv(
        sim: &mut Simulation,
        cfg: &GrayChaosConfig,
        plan: Option<&FaultPlan>,
    ) -> GrayKv {
        assert!(cfg.clients > 0, "rig needs at least one client");
        assert!(cfg.keys_per_client > 0, "rig needs at least one key");
        let cluster = Cluster::new(sim, cfg.profile.clone(), 2 + cfg.clients);
        let (primary_m, backup_m) = (cluster.machine(0), cluster.machine(1));
        let registry = MetricsRegistry::new();
        cluster.attach_metrics(&registry);
        let trace = TraceLog::new(64 * 1024);
        let spans = SpanRecorder::new(1024);
        let recorder = FlightRecorder::new(64 * 1024);
        let health = HealthHub::default();
        cluster.attach_recorder(&recorder);

        let partition_cap = (cfg.clients * cfg.keys_per_client * 2).max(64);
        // PAIR: built through `ReplicaPair` (see the header).
        let mut pair = ReplicaPair::connect(&cluster, partition_cap);
        let primary_part = Rc::clone(&pair.primary_part);
        let backup_part = Rc::clone(&pair.backup_part);
        let primary_role = Rc::clone(&pair.primary_role);
        let backup_role = Rc::clone(&pair.backup_role);
        // Standby reads power scored routing and hedging; they stay off in
        // the baseline cell so the disabled run is byte-identical to the
        // pre-gray rig.
        backup_role.standby_reads.set(cfg.failover.gray.enabled);

        let state = Rc::new(GrayState {
            completed: Cell::new(0),
            acked_puts: Cell::new(0),
            issued_puts: Cell::new(0),
            failed_calls: Cell::new(0),
            lost_acked: Cell::new(0),
            stale_reads: Cell::new(0),
            not_found: Cell::new(0),
            done_clients: Cell::new(0),
            acked: RefCell::new(HashMap::new()),
            observed: RefCell::new(HashMap::new()),
            history: RefCell::new(Vec::new()),
            read_lats: RefCell::new(Vec::new()),
        });

        let repl_conn = Rc::clone(&pair.repl_conn);

        let mut primary_conns: Vec<Rc<RfpServerConn>> = Vec::new();
        let mut backup_conns: Vec<Rc<RfpServerConn>> = Vec::new();
        let mut routers: Vec<Rc<ReplicaClient>> = Vec::new();
        let overload = OverloadConfig::default();
        let integrity = IntegrityConfig::default();

        for c in 0..cfg.clients {
            let client_m = cluster.machine(2 + c);
            let thread = client_m.thread(format!("gray-c{c}"));
            let mut replicas: Vec<Rc<RfpClient>> = Vec::new();
            for (replica, server_m) in [(0usize, &primary_m), (1usize, &backup_m)] {
                let (cl, sc) = connect(
                    &client_m,
                    server_m,
                    cluster.qp(2 + c, replica),
                    cluster.qp(replica, 2 + c),
                    rig_rfp_cfg(
                        &registry,
                        &spans,
                        &trace,
                        &recorder,
                        &health,
                        &overload,
                        &integrity,
                        c * 2 + replica,
                    ),
                );
                cl.set_reconnect(cluster.qp_factory(2 + c, replica));
                let sc = Rc::new(sc);
                if replica == 0 {
                    primary_conns.push(sc);
                } else {
                    backup_conns.push(sc);
                }
                replicas.push(Rc::new(cl));
            }
            let router = Rc::new(ReplicaClient::new(
                replicas,
                FailoverConfig {
                    recovery: rfp_core::RecoveryConfig {
                        seed: derive_seed(cfg.seed, 0x64AF + c as u64),
                        ..cfg.failover.recovery.clone()
                    },
                    gray: rfp_core::GrayConfig {
                        seed: derive_seed(cfg.failover.gray.seed, c as u64),
                        ..cfg.failover.gray.clone()
                    },
                    ..cfg.failover.clone()
                },
            ));
            routers.push(Rc::clone(&router));

            let st = Rc::clone(&state);
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 1 + c as u64));
            let keys = cfg.keys_per_client;
            let ops = cfg.ops_per_client;
            let put_ratio = cfg.put_ratio;
            let hedged = cfg.hedged_reads;
            sim.spawn(async move {
                let mut version = 0u64;
                for _ in 0..ops {
                    let is_put = rng.gen::<f64>() < put_ratio;
                    // Writers AND readers stay inside the client's own
                    // range: standby reads make cross-client reads
                    // legitimately non-linearizable (see module docs).
                    let key_id = (c * keys + rng.gen_range(0..keys)) as u64;
                    let key = format!("k{key_id}").into_bytes();
                    let (req, value) = if is_put {
                        version += 1;
                        let value = ((c as u64) << 32) | version;
                        (
                            KvRequest::Put {
                                key: &key,
                                value: &value.to_le_bytes(),
                            }
                            .encode(),
                            Some(value),
                        )
                    } else {
                        (KvRequest::Get { key: &key }.encode(), None)
                    };
                    let acked_floor = st.acked.borrow().get(&key_id).copied();
                    let observed_floor = st.observed.borrow().get(&key_id).copied();
                    let start = thread.now().as_nanos();
                    if is_put {
                        st.issued_puts.set(st.issued_puts.get() + 1);
                    }
                    let outcome = if is_put || !hedged {
                        router.call(&thread, &req).await
                    } else {
                        router.call_hedged(&thread, &req).await
                    };
                    match outcome {
                        Ok(out) => {
                            let end = thread.now().as_nanos();
                            st.completed.set(st.completed.get() + 1);
                            let resp = KvResponse::decode(&out.data).expect("server response");
                            let op = match (value, resp) {
                                (Some(v), KvResponse::Stored) => {
                                    st.acked_puts.set(st.acked_puts.get() + 1);
                                    st.acked.borrow_mut().insert(key_id, v);
                                    RegOp::Write(v)
                                }
                                (None, KvResponse::Found(bytes)) => {
                                    let raw: [u8; 8] =
                                        bytes.as_slice().try_into().expect("8-byte value");
                                    let v = u64::from_le_bytes(raw);
                                    if acked_floor.is_some_and(|floor| v < floor) {
                                        st.lost_acked.set(st.lost_acked.get() + 1);
                                    }
                                    if observed_floor.is_some_and(|floor| v < floor) {
                                        st.stale_reads.set(st.stale_reads.get() + 1);
                                    }
                                    let mut obs = st.observed.borrow_mut();
                                    let slot = obs.entry(key_id).or_insert(v);
                                    *slot = (*slot).max(v);
                                    st.read_lats.borrow_mut().push((start, end - start));
                                    RegOp::Read(Some(v))
                                }
                                (None, KvResponse::NotFound) => {
                                    st.not_found.set(st.not_found.get() + 1);
                                    if acked_floor.is_some() {
                                        st.lost_acked.set(st.lost_acked.get() + 1);
                                    }
                                    st.read_lats.borrow_mut().push((start, end - start));
                                    RegOp::Read(None)
                                }
                                (_, other) => panic!("unexpected response {other:?}"),
                            };
                            st.history.borrow_mut().push(HistEntry {
                                key: key_id,
                                client: c as u32,
                                start,
                                end: Some(end),
                                op,
                            });
                        }
                        Err(_) => {
                            st.failed_calls.set(st.failed_calls.get() + 1);
                            if let Some(v) = value {
                                st.history.borrow_mut().push(HistEntry {
                                    key: key_id,
                                    client: c as u32,
                                    start,
                                    end: None,
                                    op: RegOp::Write(v),
                                });
                            }
                        }
                    }
                }
                st.done_clients.set(st.done_clients.get() + 1);
            });
        }

        // PAIR: the serve loops start where this rig spawned them.
        pair.primary_conns = primary_conns.clone();
        pair.backup_conns = backup_conns.clone();
        pair.spawn(sim, &cluster, cfg.replication.clone());

        if let Some(plan) = plan {
            let hook_primary = primary_conns.clone();
            let hook_backup = backup_conns;
            let hook_repl = Rc::clone(&repl_conn);
            install(
                sim,
                &cluster,
                plan,
                InjectorSinks {
                    registry: Some(registry.clone()),
                    trace: Some(trace.clone()),
                    // A restarted replica rebuilds its server-side
                    // connection state before serving resumed clients;
                    // the backup additionally recovers the replication
                    // stream's receive conn.
                    on_restart: Some(Rc::new(move |restart: &Restart| match restart.machine {
                        0 => {
                            for conn in &hook_primary {
                                conn.recover_after_restart();
                            }
                        }
                        1 => {
                            for conn in &hook_backup {
                                conn.recover_after_restart();
                            }
                            hook_repl.recover_after_restart();
                        }
                        _ => {}
                    })),
                    recorder: Some(recorder.clone()),
                },
            );
        }

        GrayKv {
            cluster,
            registry,
            trace,
            spans,
            recorder,
            health,
            state,
            routers,
            primary_role,
            backup_role,
            primary_part,
            backup_part,
        }
    }
}

/// Faults strike early enough to overlap the short workload.
const FAULT_AT: SimTime = SimTime::from_nanos(100_000);
const FAULT_SPAN: SimSpan = SimSpan::millis(1);
const WINDOW: SimSpan = SimSpan::millis(3);
const OPS: usize = 120;
const KEYS: usize = 4;

/// One drawn scenario.
#[derive(Clone, Debug)]
struct Case {
    gray_preset: bool,
    seed: u64,
    clients: usize,
    ack: AckPolicy,
    /// 0 = gray off, 1 = scored routing only, 2 = every mitigation.
    gray_mode: u8,
    /// Hedged reads (the gray preset only: the failover rig had none).
    hedged: bool,
    /// 0 = no plan, 1 = crash, 2 = partition, 3 = slow link,
    /// 4 = flaky link, 5 = slow server, 6 = loss burst, 7 = straggler,
    /// 8 = QP error.
    family: u8,
    /// The fault's target: 0 = primary, 1 = backup.
    machine: usize,
    warm: bool,
    /// A crash's outage: 0 = restarts mid-workload (the restart hook
    /// runs), 1 = down for the run, 2 = down for the run and the backup
    /// is promoted (the failover preset only: the gray rig had no
    /// failure detector, so it runs 2 as 1).
    outage: u8,
}

impl Case {
    fn gray(&self) -> GrayConfig {
        match self.gray_mode {
            0 => GrayConfig::default(),
            1 => GrayConfig::routing_only(),
            _ => GrayConfig::all_on(),
        }
    }

    fn replication(&self) -> ReplicationConfig {
        ReplicationConfig {
            enabled: true,
            ack: self.ack,
            ..ReplicationConfig::default()
        }
    }

    fn promotes(&self) -> bool {
        self.family == 1 && self.outage == 2 && !self.gray_preset
    }

    fn plan(&self) -> Option<FaultPlan> {
        let (p, m) = (FaultPlan::new(self.seed), self.machine);
        Some(match self.family {
            0 => return None,
            1 => {
                let downtime = if self.outage == 0 {
                    SimSpan::micros(200)
                } else {
                    SimSpan::millis(100)
                };
                p.crash(FAULT_AT, downtime, m, self.warm)
            }
            2 => p
                .partition(FAULT_AT, FAULT_SPAN, 2, m)
                .partition(FAULT_AT, FAULT_SPAN, m, 2),
            3 => p.slow_link(FAULT_AT, FAULT_SPAN, m, 20_000),
            4 => p.flaky_link(FAULT_AT, FAULT_SPAN, m, 0.9),
            5 => p.slow_server(FAULT_AT, FAULT_SPAN, m, 16.0),
            6 => p.loss_burst(FAULT_AT, FAULT_SPAN, m, 0.5),
            7 => p.straggler(FAULT_AT, FAULT_SPAN, m, 8.0),
            _ => p.qp_error(FAULT_AT, m),
        })
    }

    fn promote_at(&self) -> Option<SimTime> {
        self.promotes().then(|| FAULT_AT + SimSpan::micros(60))
    }
}

/// Everything observable about one run, as named renderings.
type Observed = Vec<(&'static str, String)>;

/// The pieces of a finished run that every rig exposes.
struct Run<'a> {
    now: SimTime,
    cluster: &'a Cluster,
    registry: &'a MetricsRegistry,
    trace: &'a TraceLog,
    spans: &'a SpanRecorder,
    recorder: &'a FlightRecorder,
    health: &'a HealthHub,
    counters: Vec<u64>,
    history: Vec<HistEntry>,
    read_lats: Option<Vec<u64>>,
    routers: &'a [Rc<ReplicaClient>],
    primary_role: &'a PrimaryRole,
    backup_role: &'a BackupRole,
    stores: [&'a std::cell::RefCell<Partition>; 2],
    keys: usize,
}

fn observe(run: Run<'_>) -> Observed {
    let text = |write: &dyn Fn(&mut Vec<u8>)| {
        let mut buf = Vec::new();
        write(&mut buf);
        String::from_utf8(buf).expect("utf8 dump")
    };
    let registry = text(&|w| run.registry.snapshot().write_csv(w).expect("csv"));
    let trace = text(&|w| run.trace.dump(w).expect("trace"));
    let recorder = text(&|w| run.recorder.dump(w).expect("recorder"));
    let spans = text(&|w| run.spans.write_chrome_trace(w).expect("spans"));
    let mut routers = String::new();
    for r in run.routers {
        let _ = write!(
            routers,
            "{} {} {} {:?} {} {} {};",
            r.active(),
            r.failovers(),
            r.known_epoch(),
            r.hedges(),
            r.budget().consumed(),
            r.budget().denied(),
            r.fail_streak(),
        );
    }
    let (p, b) = (run.primary_role, run.backup_role);
    let roles = format!(
        "{} {} {} {} {} | {} {} {} {} {}",
        p.shipped_entries.get(),
        p.shipped_batches.get(),
        p.solo.get(),
        p.applied_mutations.get(),
        p.next_lsn(),
        b.promoted.get(),
        b.applied.get(),
        b.standby_reads.get(),
        b.served_reads.get(),
        b.refused_mutations.get(),
    );
    let mut stores = String::new();
    for store in run.stores {
        for k in 0..run.keys {
            let v = store
                .borrow_mut()
                .get(format!("k{k}").as_bytes())
                .map(<[u8]>::to_vec);
            let _ = write!(stores, "{v:?};");
        }
        stores.push('|');
    }
    let nics = (0..run.cluster.len())
        .map(|m| format!("{:?}", run.cluster.machine(m).nic().counters()))
        .collect::<Vec<_>>()
        .join("\n");
    vec![
        ("clock", run.now.as_nanos().to_string()),
        ("registry", registry),
        ("trace", trace),
        ("recorder", recorder),
        ("health", format!("{:?}", run.health.report(run.now))),
        ("spans", spans),
        ("history", format!("{:?}", run.history)),
        ("read_lats", format!("{:?}", run.read_lats)),
        ("state", format!("{:?}", run.counters)),
        ("roles", roles),
        ("routers", routers),
        ("stores", stores),
        ("nics", nics),
    ]
}

fn run_merged(case: &Case) -> Observed {
    let base = if case.gray_preset {
        ReplicatedConfig::gray()
    } else {
        ReplicatedConfig::failover()
    };
    let cfg = ReplicatedConfig {
        clients: case.clients,
        keys_per_client: KEYS,
        ops_per_client: OPS,
        hedged_reads: case.gray_preset && case.hedged,
        replication: case.replication(),
        failover: FailoverConfig {
            gray: case.gray(),
            ..base.failover.clone()
        },
        seed: case.seed,
        ..base
    };
    let mut sim = Simulation::new(case.seed);
    let plan = case.plan();
    let rig = spawn_replicated_kv(&mut sim, &cfg, plan.as_ref(), case.promote_at());
    sim.run_for(WINDOW);
    let st = &rig.state;
    let mut counters = vec![
        st.completed.get(),
        st.acked_puts.get(),
        st.failed_calls.get(),
        st.lost_acked.get(),
        st.stale_reads.get(),
        st.not_found.get(),
        st.done_clients.get() as u64,
    ];
    let read_lats = if case.gray_preset {
        counters.push(st.issued_puts.get());
        Some(st.read_lats_since(SimTime::ZERO))
    } else {
        counters.push(st.promoted_at.get().map_or(u64::MAX, SimTime::as_nanos));
        None
    };
    observe(Run {
        now: sim.now(),
        cluster: &rig.sinks.cluster,
        registry: &rig.sinks.registry,
        trace: &rig.sinks.trace,
        spans: &rig.sinks.spans,
        recorder: &rig.sinks.recorder,
        health: &rig.sinks.health,
        counters,
        history: st.history(),
        read_lats,
        routers: &rig.routers,
        primary_role: &rig.pair.primary_role,
        backup_role: &rig.pair.backup_role,
        stores: [&rig.pair.primary_part, &rig.pair.backup_part],
        keys: case.clients * KEYS,
    })
}

fn run_frozen(case: &Case) -> Observed {
    let mut sim = Simulation::new(case.seed);
    let plan = case.plan();
    let keys = case.clients * KEYS;
    if case.gray_preset {
        let cfg = frozen_gray::GrayChaosConfig {
            clients: case.clients,
            keys_per_client: KEYS,
            ops_per_client: OPS,
            hedged_reads: case.hedged,
            replication: case.replication(),
            failover: FailoverConfig {
                gray: case.gray(),
                ..frozen_gray::GrayChaosConfig::default().failover
            },
            seed: case.seed,
            ..frozen_gray::GrayChaosConfig::default()
        };
        let rig = frozen_gray::spawn_grayfail_kv(&mut sim, &cfg, plan.as_ref());
        sim.run_for(WINDOW);
        let st = &rig.state;
        observe(Run {
            now: sim.now(),
            cluster: &rig.cluster,
            registry: &rig.registry,
            trace: &rig.trace,
            spans: &rig.spans,
            recorder: &rig.recorder,
            health: &rig.health,
            counters: vec![
                st.completed.get(),
                st.acked_puts.get(),
                st.failed_calls.get(),
                st.lost_acked.get(),
                st.stale_reads.get(),
                st.not_found.get(),
                st.done_clients.get() as u64,
                st.issued_puts.get(),
            ],
            history: st.history(),
            read_lats: Some(st.read_lats_since(SimTime::ZERO)),
            routers: &rig.routers,
            primary_role: &rig.primary_role,
            backup_role: &rig.backup_role,
            stores: [&rig.primary_part, &rig.backup_part],
            keys,
        })
    } else {
        let cfg = frozen_failover::FailoverChaosConfig {
            clients: case.clients,
            keys_per_client: KEYS,
            ops_per_client: OPS,
            replication: case.replication(),
            failover: FailoverConfig {
                gray: case.gray(),
                ..frozen_failover::FailoverChaosConfig::default().failover
            },
            seed: case.seed,
            ..frozen_failover::FailoverChaosConfig::default()
        };
        let rig =
            frozen_failover::spawn_failover_kv(&mut sim, &cfg, plan.as_ref(), case.promote_at());
        sim.run_for(WINDOW);
        let st = &rig.state;
        observe(Run {
            now: sim.now(),
            cluster: &rig.cluster,
            registry: &rig.registry,
            trace: &rig.trace,
            spans: &rig.spans,
            recorder: &rig.recorder,
            health: &rig.health,
            counters: vec![
                st.completed.get(),
                st.acked_puts.get(),
                st.failed_calls.get(),
                st.lost_acked.get(),
                st.stale_reads.get(),
                st.not_found.get(),
                st.done_clients.get() as u64,
                st.promoted_at.get().map_or(u64::MAX, SimTime::as_nanos),
            ],
            history: st.history(),
            read_lats: None,
            routers: &rig.routers,
            primary_role: &rig.primary_role,
            backup_role: &rig.backup_role,
            stores: [&rig.primary_part, &rig.backup_part],
            keys,
        })
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (any::<bool>(), 0u64..100_000, 1usize..=4, any::<bool>()),
        (0u8..3, any::<bool>()),
        (0u8..9, 0usize..2, any::<bool>(), 0u8..3),
    )
        .prop_map(
            |(
                (gray_preset, seed, clients, sync),
                (gray_mode, hedged),
                (family, machine, warm, outage),
            )| {
                Case {
                    gray_preset,
                    seed,
                    clients,
                    ack: if sync {
                        AckPolicy::Sync
                    } else {
                        AckPolicy::Async
                    },
                    gray_mode,
                    hedged,
                    family,
                    machine,
                    warm,
                    outage,
                }
            },
        )
}

/// Runs one rig, catching a panic as its message: a rig that panics
/// must panic the same way in both implementations.
fn outcome(run: impl FnOnce() -> Observed) -> Result<Observed, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

proptest! {
    #[test]
    fn merged_rig_replays_the_frozen_rigs(case in case_strategy()) {
        let merged = outcome(|| run_merged(&case));
        let frozen = outcome(|| run_frozen(&case));
        match (merged, frozen) {
            (Ok(merged), Ok(frozen)) => {
                let state = &merged.iter().find(|(n, _)| *n == "state").expect("state").1;
                prop_assert!(!state.starts_with("[0,"), "the run completed nothing: {:?}", case);
                for ((name, got), (_, want)) in merged.iter().zip(&frozen) {
                    prop_assert!(got == want, "{} diverged for {:?}", name, case);
                }
            }
            (merged, frozen) => prop_assert_eq!(
                merged.err(),
                frozen.err(),
                "only one rig panicked for {:?}",
                case
            ),
        }
    }
}
