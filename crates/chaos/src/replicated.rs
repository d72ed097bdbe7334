//! The replicated key-value rig, for failover and gray-failure
//! experiments alike.
//!
//! [`spawn_replicated_kv`] assembles a `rfp-kvstore`
//! [`ReplicaPair`] — machine 0 is the primary, machine 1 the standby
//! backup fed by the primary's replication log, machines `2..` run
//! clients — and routes every client call through an
//! [`rfp_core::ReplicaClient`], so a dead or fenced primary re-homes the
//! client onto the backup automatically. Two presets aim it:
//!
//! * [`ReplicatedConfig::failover`] — fail-stop faults. Promotion is the
//!   experiment's failure detector: the caller schedules it
//!   (`promote_at`) only for scenarios where the primary really is
//!   dead. Partition scenarios deliberately leave the backup
//!   unpromoted — clients bounce off the standby and come back once the
//!   link heals; that costs availability, never consistency.
//! * [`ReplicatedConfig::gray`] — fail-*slow* faults: slow links, flaky
//!   sub-recovery-threshold links, CPU-throttled serve loops. Nothing
//!   in those scenarios ever crashes, errors, or sheds, so the crash
//!   failover path never fires; what the rig measures is whether the
//!   gray-failure subsystem (scored routing, hedged reads, retry
//!   budgets — [`rfp_core::GrayConfig`]) keeps the **read tail**
//!   bounded while the fault is live.
//!
//! The rig records per run:
//!
//! * **online invariant counters** — a GET that observes a version
//!   older than an already-acknowledged PUT of the same key books
//!   `lost_acked`; one that runs *backwards* relative to a version some
//!   earlier-completed read already observed books `stale_reads`
//!   (the deposed-primary signature). Both compare against snapshots
//!   taken at call *start*, so a read racing a concurrent write is
//!   never a false positive;
//! * **a full operation history** — every call becomes a
//!   [`HistEntry`]; calls that exhausted their budget stay *pending*
//!   (they may or may not have taken effect), exactly what
//!   [`rfp_workload::check_history`] is built to adjudicate;
//! * **phase-tagged read latencies** — every GET's `(start, latency)`,
//!   so a bench can take the read p99 over a mitigation-steady
//!   measurement phase, excluding warmup and the detection transient;
//! * **a duplicate-apply ledger** — `issued_puts` against the primary's
//!   applied and the standby's refused mutations: together with the
//!   history these prove hedging never double-applies a write;
//! * **failover timing** (roaming reads only) — the span from the first
//!   fault instant to each client's next completed call, in the
//!   `failover.time` histogram.
//!
//! Every PUT value is `client << 32 | version` with a per-client
//! monotone version, so write values are globally unique (the checker's
//! convention) and each key has exactly one writer; [`ReadScope`]
//! decides which keys the reads target.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_core::{
    FailoverConfig, GrayConfig, IntegrityConfig, OverloadConfig, RecoveryConfig, ReplicaClient,
    RfpClient,
};
use rfp_kvstore::replica::{ReplicaPair, ReplicationConfig};
use rfp_kvstore::{KvRequest, KvResponse};
use rfp_rnic::ClusterProfile;
use rfp_simnet::{derive_seed, Histogram, RetryPolicy, SimSpan, SimTime, Simulation};
use rfp_workload::{HistEntry, RegOp};

use crate::harness::RigSinks;
use crate::inject::Restart;
use crate::plan::FaultPlan;

/// The epoch a promoted backup fences at (the rig promotes at most
/// once per run).
pub const PROMOTED_EPOCH: u16 = 1;

/// Which keys a client's GETs target (its PUTs always stay on its own).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReadScope {
    /// Each client reads only its own keys (the gray-failure study).
    /// Own-key reads are safe to serve from the standby — under `Sync`
    /// ack a write is applied at the backup before its issuer sees the
    /// ack — so with gray routing on, the unpromoted backup answers
    /// GETs ([`BackupRole::standby_reads`][standby]), and each client's router
    /// draws from its own de-preference stream.
    ///
    /// [standby]: rfp_kvstore::replica::BackupRole::standby_reads
    Own,
    /// Reads roam every client's keys (the failover study):
    /// cross-client reads are what make the surviving histories worth
    /// checking. A standby could legitimately serve such a read a write
    /// another client saw early on the primary before its log batch
    /// shipped, so the standby never serves reads here; the routers
    /// share the configured de-preference seed, and the rig times each
    /// client's first completed call after the first fault
    /// (`failover.time`).
    Roaming,
}

/// Sizing and tuning of the replicated rig; start from a preset.
#[derive(Clone, Debug)]
pub struct ReplicatedConfig {
    /// Client machines (one client thread each), on machines `2..`.
    pub clients: usize,
    /// Keys written per client.
    pub keys_per_client: usize,
    /// Operations each client issues before stopping. Bounded so the
    /// per-key histories stay inside the checker's search capacity.
    pub ops_per_client: usize,
    /// Fraction of operations that are PUTs (always routed `call`,
    /// never hedged — mutations anchor on the primary).
    pub put_ratio: f64,
    /// Which keys GETs target.
    pub reads: ReadScope,
    /// Whether GETs go through [`ReplicaClient::call_hedged`] (the
    /// gray-routed read path) or plain [`ReplicaClient::call`].
    pub hedged_reads: bool,
    /// Primary-side replication tuning (both presets run `Sync` ack).
    pub replication: ReplicationConfig,
    /// Client-side router policy; `failover.gray` is the gray-failure
    /// subsystem. Client `c`'s recovery seed derives from `seed` and
    /// `failover.recovery.seed + c`, so the preset's recovery seed is a
    /// salt.
    pub failover: FailoverConfig,
    /// Cluster timing profile.
    pub profile: ClusterProfile,
    /// Master seed for workloads and recovery jitter.
    pub seed: u64,
}

impl ReplicatedConfig {
    /// The failover study: roaming reads over a short, write-heavy
    /// workload.
    pub fn failover() -> Self {
        ReplicatedConfig {
            clients: 3,
            keys_per_client: 4,
            ops_per_client: 60,
            put_ratio: 0.5,
            reads: ReadScope::Roaming,
            hedged_reads: false,
            replication: ReplicationConfig {
                enabled: true,
                ..ReplicationConfig::default()
            },
            failover: router_policy(4, 0xFA11),
            profile: ClusterProfile::paper_testbed(),
            seed: 11,
        }
    }

    /// The gray-failure study: own-key reads through the hedged path
    /// over a longer, read-heavy workload (gray mitigations off until
    /// the caller sets `failover.gray`).
    pub fn gray() -> Self {
        ReplicatedConfig {
            ops_per_client: 400,
            put_ratio: 0.3,
            reads: ReadScope::Own,
            hedged_reads: true,
            failover: router_policy(6, 0x64AF),
            seed: 23,
            ..ReplicatedConfig::failover()
        }
    }
}

/// A short per-replica retry budget of `attempts`: the router should
/// stop flogging a dead primary and re-home within a bounded handful of
/// attempts, not ride out the full single-server recovery schedule
/// first. `salt` seeds the per-client recovery streams.
fn router_policy(attempts: u32, salt: u64) -> FailoverConfig {
    FailoverConfig {
        recovery: RecoveryConfig {
            retry: RetryPolicy::exponential(
                attempts,
                SimSpan::micros(10),
                SimSpan::micros(200),
                0.2,
            ),
            seed: salt,
            ..RecoveryConfig::default()
        },
        ..FailoverConfig::default()
    }
}

/// Shared outcome state, updated online by every client loop.
pub struct ReplicatedState {
    /// Completed calls (all kinds).
    pub completed: Cell<u64>,
    /// Acknowledged PUTs.
    pub acked_puts: Cell<u64>,
    /// PUT calls issued (acked or not) — the duplicate-apply ceiling.
    pub issued_puts: Cell<u64>,
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
    /// Per-client fault instant awaiting the first completed call.
    recovering: Vec<Cell<Option<SimTime>>>,
    /// Every completed GET as `(start_ns, latency_ns)`.
    read_lats: RefCell<Vec<(u64, u64)>>,
}

impl ReplicatedState {
    fn new(clients: usize) -> Self {
        ReplicatedState {
            completed: Cell::new(0),
            acked_puts: Cell::new(0),
            issued_puts: Cell::new(0),
            failed_calls: Cell::new(0),
            lost_acked: Cell::new(0),
            stale_reads: Cell::new(0),
            not_found: Cell::new(0),
            done_clients: Cell::new(0),
            promoted_at: Cell::new(None),
            acked: RefCell::new(HashMap::new()),
            observed: RefCell::new(HashMap::new()),
            history: RefCell::new(Vec::new()),
            recovering: (0..clients).map(|_| Cell::new(None)).collect(),
            read_lats: RefCell::new(Vec::new()),
        }
    }

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

    /// Nearest-rank p99 read latency (ns) over GETs started at or after
    /// `from`; `None` with fewer than 10 samples.
    pub fn read_p99_since(&self, from: SimTime) -> Option<u64> {
        let lats = self.read_lats_since(from);
        if lats.len() < 10 {
            return None;
        }
        let hist = Histogram::new();
        for lat in lats {
            hist.record(SimSpan::nanos(lat));
        }
        hist.percentile(99.0).map(SimSpan::as_nanos)
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

/// A running replicated rig.
pub struct ReplicatedKv {
    /// The cluster (0 = primary, 1 = backup, `2..` clients) and the
    /// observability sinks; health is keyed `client * 2 + replica`.
    /// Beyond the chaos rig's instruments the registry carries
    /// `failover.time` and `routing.*`, and the flight recorder the
    /// router's `recovery.failover`, `routing.demote` and
    /// `recovery.hedge.*` chains.
    pub sinks: RigSinks,
    /// Shared outcome state.
    pub state: Rc<ReplicatedState>,
    /// One router per client, in machine order.
    pub routers: Vec<Rc<ReplicaClient>>,
    /// The primary/backup pair: stores, roles and their ledgers.
    pub pair: ReplicaPair,
}

impl ReplicatedKv {
    /// Total replica re-homings across all clients.
    pub fn total_failovers(&self) -> u64 {
        self.routers.iter().map(|r| r.failovers()).sum()
    }

    /// Maximum observed client failover time, if any fault was timed.
    pub fn max_failover_time(&self) -> Option<SimSpan> {
        let registry = &self.sinks.registry;
        if !registry.names().iter().any(|n| n == "failover.time") {
            return None;
        }
        registry.histogram("failover.time").max()
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

/// Spawns the rig; pass a [`FaultPlan`] to install its injector and
/// `promote_at` to schedule the failure detector's promotion of the
/// backup (crash scenarios only — a partitioned or fail-slow primary
/// is not dead).
///
/// A restarted replica rebuilds its server-side connection state before
/// serving resumed clients, and a restarted backup also recovers the
/// replication stream's receive end. A restarted ex-primary is
/// *deposed*: it comes back at its old epoch and the fence keeps it
/// from serving promoted-era clients.
pub fn spawn_replicated_kv(
    sim: &mut Simulation,
    cfg: &ReplicatedConfig,
    plan: Option<&FaultPlan>,
    promote_at: Option<SimTime>,
) -> ReplicatedKv {
    assert!(cfg.clients > 0, "rig needs at least one client");
    assert!(cfg.keys_per_client > 0, "rig needs at least one key");
    let sinks = RigSinks::new(sim, &cfg.profile, 2 + cfg.clients);
    let partition_cap = (cfg.clients * cfg.keys_per_client * 2).max(64);
    let mut pair = ReplicaPair::connect(&sinks.cluster, partition_cap);
    // Standby reads power scored routing and hedging. They stay off in
    // a gray-disabled run, so it is byte-identical to the pre-gray rig,
    // and for roaming reads (see `ReadScope::Roaming`).
    pair.backup_role
        .standby_reads
        .set(cfg.failover.gray.enabled && cfg.reads == ReadScope::Own);

    let state = Rc::new(ReplicatedState::new(cfg.clients));

    let mut routers: Vec<Rc<ReplicaClient>> = Vec::new();
    let (overload, integrity) = (OverloadConfig::default(), IntegrityConfig::default());
    for c in 0..cfg.clients {
        let thread = sinks.cluster.machine(2 + c).thread(format!("replica-c{c}"));
        let replicas: Vec<Rc<RfpClient>> = (0..2)
            .map(|replica| {
                let (cl, sc) =
                    sinks.connect(2 + c, replica, &overload, &integrity, c * 2 + replica);
                pair.attach(replica, sc);
                Rc::new(cl)
            })
            .collect();
        let gray = match cfg.reads {
            ReadScope::Own => GrayConfig {
                seed: derive_seed(cfg.failover.gray.seed, c as u64),
                ..cfg.failover.gray.clone()
            },
            ReadScope::Roaming => cfg.failover.gray.clone(),
        };
        let router = Rc::new(ReplicaClient::new(
            replicas,
            FailoverConfig {
                recovery: RecoveryConfig {
                    seed: derive_seed(cfg.seed, cfg.failover.recovery.seed.wrapping_add(c as u64)),
                    ..cfg.failover.recovery.clone()
                },
                gray,
                ..cfg.failover.clone()
            },
        ));
        routers.push(Rc::clone(&router));

        let st = Rc::clone(&state);
        let reg = sinks.registry.clone();
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 1 + c as u64));
        let keys = cfg.keys_per_client;
        let total_keys = cfg.clients * cfg.keys_per_client;
        let (ops, put_ratio, reads, hedged) = (
            cfg.ops_per_client,
            cfg.put_ratio,
            cfg.reads,
            cfg.hedged_reads,
        );
        sim.spawn(async move {
            let mut version = 0u64;
            for _ in 0..ops {
                let is_put = rng.gen::<f64>() < put_ratio;
                let key_id = if is_put || reads == ReadScope::Own {
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
                        if let Some(fault_at) = st.recovering[c].take() {
                            reg.histogram("failover.time")
                                .record(thread.now().since(fault_at));
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

    pair.spawn(sim, &sinks.cluster, cfg.replication.clone());

    // The failure detector: promote the backup into the next epoch at a
    // fixed (deterministic) instant after the crash.
    if let Some(at) = promote_at {
        let handle = sinks.cluster.handle().clone();
        let role = Rc::clone(&pair.backup_role);
        let conns = pair.backup_conns.clone();
        let st = Rc::clone(&state);
        let tr = sinks.trace.clone();
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

    if let Some(plan) = plan {
        // Roaming readers are marked "recovering" at the first fault
        // instant, so `failover.time` measures fault -> first completed
        // call.
        let first_at = plan.events().iter().map(|e| e.at).min();
        if let (ReadScope::Roaming, Some(first_at)) = (cfg.reads, first_at) {
            let handle = sinks.cluster.handle().clone();
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
        let primary = pair.primary_conns.clone();
        let backup = pair.backup_conns.clone();
        let repl = Rc::clone(&pair.repl_conn);
        sinks.install(sim, plan, move |restart: &Restart| match restart.machine {
            0 => primary.iter().for_each(|conn| conn.recover_after_restart()),
            1 => {
                backup.iter().for_each(|conn| conn.recover_after_restart());
                repl.recover_after_restart();
            }
            _ => {}
        });
    }

    ReplicatedKv {
        sinks,
        state,
        routers,
        pair,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_p99_is_nearest_rank() {
        let state = ReplicatedState::new(1);
        // 0.99 * 150 = 148.5: nearest rank is the 149th sample.
        state
            .read_lats
            .borrow_mut()
            .extend((1..=150).map(|lat| (1_000, lat)));
        assert_eq!(state.read_p99_since(SimTime::ZERO), Some(149));
        // Reads started before the measurement phase do not count.
        assert_eq!(state.read_p99_since(SimTime::from_nanos(1_001)), None);
    }
}
