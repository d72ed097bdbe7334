//! Primary/backup replication of the bucket-table store.
//!
//! The primary applies every request to its own partition and ships the
//! **ordered mutation log** — PUTs and DELETEs, as their encoded
//! requests, stamped with a monotone log sequence number (LSN) — to the
//! backup over a dedicated RFP connection. The backup applies entries
//! in LSN order and acks with the next LSN it expects, so the log
//! channel inherits RFP's exactly-once delivery (seq dedup on the
//! replication connection makes a re-shipped batch harmless).
//!
//! Two ack policies ([`AckPolicy`]):
//!
//! * **`Sync`** (default) — a client's mutating request is answered
//!   only after the backup acked the log batch carrying it:
//!   *acked-write = replicated-write*, the invariant the failover bench
//!   asserts. Entries picked up in the same scan share one batch, so
//!   the replication round trip amortises across concurrent writers.
//! * **`Async`** — the client is answered immediately and the log ships
//!   at the end of the scan. Cheaper per write, but a primary crash
//!   loses the unshipped tail *after it was acked* — the bench
//!   quantifies that trade instead of hiding it.
//!
//! When the backup stops acking (crashed, partitioned away), the
//! primary declares it dead and continues **solo**: clients keep being
//! served from the surviving copy, and replication stops until a new
//! backup is provisioned (resynchronisation is outside this module's
//! scope). The reverse direction — the *primary* dying — is the
//! failover path: a detector promotes the backup
//! ([`BackupRole::promote`]), which bumps the replication epoch on its
//! client-facing connections; from then on it serves clients itself,
//! ignores the log channel, and the epoch fence guarantees the deposed
//! primary can never ack another split-brain write (requests stamped
//! with the new epoch are fenced, its responses carry the old epoch and
//! are discarded client-side).
//!
//! [`ReplicationConfig::default`] is **off**: a primary loop with the
//! default config serves exactly like the plain
//! [`serve_loop`](rfp_core::serve_loop) and stamps nothing new on the
//! wire — the `prop_replica` suite pins that replication-off runs
//! encode byte-identical headers to the pre-replication format.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rfp_core::{connect, RecoveryConfig, RespStatus, RfpClient, RfpConfig, RfpServerConn};
use rfp_rnic::{Cluster, ThreadCtx};
use rfp_simnet::{RetryPolicy, SimSpan, Simulation};

use crate::bucket::Partition;
use crate::proto::{KvRequest, ProtoError};
use crate::systems::apply_to_partition;

/// When the primary acknowledges a mutating request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AckPolicy {
    /// Ack only after the backup acked the log entry (no acked write
    /// can be lost to a primary crash).
    Sync,
    /// Ack immediately, ship the log at scan end (a primary crash can
    /// lose the acked-but-unshipped tail).
    Async,
}

/// Tunables of the primary's replication path.
#[derive(Clone, Debug)]
pub struct ReplicationConfig {
    /// Master switch; off by default. A disabled primary loop never
    /// touches the log channel and serves exactly like the plain loop.
    pub enabled: bool,
    /// Ack policy for mutating requests.
    pub ack: AckPolicy,
    /// Most log entries shipped per replication call.
    pub batch: usize,
    /// Recovery policy of the ship calls. The default keeps the budget
    /// short: a dead backup should demote to solo serving in a bounded
    /// span, not stall clients for the full client-side budget.
    pub recovery: RecoveryConfig,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            enabled: false,
            ack: AckPolicy::Sync,
            batch: 8,
            recovery: RecoveryConfig {
                retry: RetryPolicy::exponential(4, SimSpan::micros(10), SimSpan::micros(200), 0.2),
                ..RecoveryConfig::default()
            },
        }
    }
}

/// Log-batch wire format:
/// `[base_lsn:u64][n:u16]` then per entry `[len:u32][encoded request]`.
pub fn encode_batch(base_lsn: u64, entries: &[Vec<u8>]) -> Vec<u8> {
    assert!(entries.len() <= u16::MAX as usize, "batch too large");
    let mut out = Vec::with_capacity(10 + entries.iter().map(|e| 4 + e.len()).sum::<usize>());
    out.extend_from_slice(&base_lsn.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&(e.len() as u32).to_le_bytes());
        out.extend_from_slice(e);
    }
    out
}

/// Decodes a log batch into its base LSN and borrowed entries.
pub fn decode_batch(buf: &[u8]) -> Result<(u64, Vec<&[u8]>), ProtoError> {
    if buf.len() < 10 {
        return Err(ProtoError::Truncated);
    }
    let base_lsn = u64::from_le_bytes(buf[0..8].try_into().expect("len checked"));
    let n = u16::from_le_bytes([buf[8], buf[9]]) as usize;
    let mut entries = Vec::with_capacity(n);
    let mut off = 10;
    for _ in 0..n {
        if buf.len() < off + 4 {
            return Err(ProtoError::Truncated);
        }
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().expect("len checked")) as usize;
        off += 4;
        if buf.len() < off + len {
            return Err(ProtoError::Truncated);
        }
        entries.push(&buf[off..off + len]);
        off += len;
    }
    Ok((base_lsn, entries))
}

/// Ack wire format: `[next_lsn:u64]`.
pub fn encode_ack(next_lsn: u64) -> Vec<u8> {
    next_lsn.to_le_bytes().to_vec()
}

/// Decodes a replication ack.
pub fn decode_ack(buf: &[u8]) -> Result<u64, ProtoError> {
    if buf.len() < 8 {
        return Err(ProtoError::Truncated);
    }
    Ok(u64::from_le_bytes(
        buf[0..8].try_into().expect("len checked"),
    ))
}

/// The primary's replication state, shared with its observers.
#[derive(Default)]
pub struct PrimaryRole {
    /// Log entries acked by the backup.
    pub shipped_entries: Cell<u64>,
    /// Replication calls that carried them.
    pub shipped_batches: Cell<u64>,
    /// Set when the backup stopped acking and the primary fell back to
    /// serving solo.
    pub solo: Cell<bool>,
    /// Mutations actually applied to the primary's partition — the
    /// duplicate-apply ledger: with same-seq dedup doing its job this
    /// never exceeds the mutations clients issued, hedged or not.
    pub applied_mutations: Cell<u64>,
    next_lsn: Cell<u64>,
}

impl PrimaryRole {
    /// LSN the next shipped entry will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn.get()
    }
}

/// The backup's replication state, shared with the failure detector.
#[derive(Default)]
pub struct BackupRole {
    /// Set by [`promote`](BackupRole::promote): the backup now serves
    /// clients itself and ignores the log channel.
    pub promoted: Cell<bool>,
    /// Log entries applied in order.
    pub applied: Cell<u64>,
    /// Standby read serving (off by default): an **unpromoted** backup
    /// polls its client-facing connections and answers GETs from the
    /// replicated partition, while refusing every mutation with `Busy`
    /// *without executing it* — the contract that makes the gray-failure
    /// router's scored routing and read hedging safe. Under `Sync` ack
    /// an acked write is applied here before the primary answers, so a
    /// standby read never misses a write its issuer saw acked.
    pub standby_reads: Cell<bool>,
    /// GETs served while in standby.
    pub served_reads: Cell<u64>,
    /// Mutations refused (`Busy`, unexecuted) while in standby.
    pub refused_mutations: Cell<u64>,
    expected_lsn: Cell<u64>,
}

impl BackupRole {
    /// Promotes this backup into `epoch`: its client-facing connections
    /// fence every request stamped in an older epoch (and teach lagging
    /// clients the new one through the `Fenced` verdict), and its serve
    /// loop flips from log-applying standby to serving clients.
    ///
    /// The log channel is deliberately *not* fenced — a client-style
    /// epoch fence would let the deposed primary adopt the new epoch
    /// and keep shipping. The standby loop just stops draining it, so
    /// a surviving ex-primary times out and demotes itself to solo.
    pub fn promote(&self, client_conns: &[Rc<RfpServerConn>], epoch: u16) {
        for conn in client_conns {
            conn.set_epoch(epoch);
        }
        self.promoted.set(true);
    }
}

/// A primary/backup pair on machines 0 (primary) and 1 (backup) of a
/// cluster: both stores and roles, the dedicated replication link, and
/// the server ends of the client links each replica serves.
///
/// Building is wiring, in order: [`connect`](ReplicaPair::connect)
/// links the replication channel, the caller connects its client links
/// and [`attach`](ReplicaPair::attach)es their server ends, and
/// [`spawn`](ReplicaPair::spawn) starts both serve loops — after the
/// caller's client tasks.
pub struct ReplicaPair {
    /// The primary's store.
    pub primary_part: Rc<RefCell<Partition>>,
    /// The backup's store.
    pub backup_part: Rc<RefCell<Partition>>,
    /// Primary-side replication bookkeeping (and the apply ledger).
    pub primary_role: Rc<PrimaryRole>,
    /// Backup-side replication bookkeeping (and the refusal ledger).
    pub backup_role: Rc<BackupRole>,
    /// Client links the primary serves, in attach order.
    pub primary_conns: Vec<Rc<RfpServerConn>>,
    /// Client links the backup serves once promoted (or in standby,
    /// with [`BackupRole::standby_reads`] on), in attach order.
    pub backup_conns: Vec<Rc<RfpServerConn>>,
    /// The backup's end of the replication link.
    pub repl_conn: Rc<RfpServerConn>,
    ship: Rc<RfpClient>,
}

impl ReplicaPair {
    /// Creates both stores (`partition_cap` buckets each) and connects
    /// the replication link, primary -> backup. Plain RFP: the log
    /// channel is deliberately outside the client-facing epoch fence
    /// (see [`BackupRole::promote`]).
    pub fn connect(cluster: &Cluster, partition_cap: usize) -> Self {
        let (ship, repl_conn) = connect(
            &cluster.machine(0),
            &cluster.machine(1),
            cluster.qp(0, 1),
            cluster.qp(1, 0),
            RfpConfig {
                enable_mode_switch: false,
                ..RfpConfig::default()
            },
        );
        ship.set_reconnect(cluster.qp_factory(0, 1));
        ReplicaPair {
            primary_part: Rc::new(RefCell::new(Partition::new(partition_cap))),
            backup_part: Rc::new(RefCell::new(Partition::new(partition_cap))),
            primary_role: Rc::new(PrimaryRole::default()),
            backup_role: Rc::new(BackupRole::default()),
            primary_conns: Vec::new(),
            backup_conns: Vec::new(),
            repl_conn: Rc::new(repl_conn),
            ship: Rc::new(ship),
        }
    }

    /// Hands a client link's server end to replica `0` (the primary)
    /// or `1` (the backup).
    ///
    /// # Panics
    ///
    /// Panics on any other replica index.
    pub fn attach(&mut self, replica: usize, conn: Rc<RfpServerConn>) {
        match replica {
            0 => self.primary_conns.push(conn),
            1 => self.backup_conns.push(conn),
            _ => panic!("replica {replica} outside the pair"),
        }
    }

    /// Spawns the primary's serve loop (shipping per `cfg`) and the
    /// backup's, both spinning 100 ns per empty scan.
    ///
    /// # Panics
    ///
    /// The primary's loop panics if no client link was attached to it.
    pub fn spawn(&self, sim: &mut Simulation, cluster: &Cluster, cfg: ReplicationConfig) {
        sim.spawn(primary_serve_loop(
            cluster.machine(0).thread("primary"),
            self.primary_conns.clone(),
            Rc::clone(&self.primary_part),
            Rc::clone(&self.ship),
            cfg,
            Rc::clone(&self.primary_role),
            SimSpan::nanos(100),
        ));
        sim.spawn(backup_serve_loop(
            cluster.machine(1).thread("backup"),
            Rc::clone(&self.repl_conn),
            self.backup_conns.clone(),
            Rc::clone(&self.backup_part),
            Rc::clone(&self.backup_role),
            SimSpan::nanos(100),
        ));
    }
}

fn crashed(thread: &ThreadCtx) -> bool {
    thread.machine().faults().is_crashed()
}

async fn park(thread: &ThreadCtx, span: SimSpan) {
    thread
        .idle_wait(thread.handle().sleep(span.max(SimSpan::micros(1))))
        .await;
}

/// Ships `log` to the backup in batches of `cfg.batch`; returns whether
/// every batch was acked.
async fn ship_log(
    thread: &ThreadCtx,
    ship: &RfpClient,
    cfg: &ReplicationConfig,
    role: &PrimaryRole,
    log: &[Vec<u8>],
) -> bool {
    for chunk in log.chunks(cfg.batch.max(1)) {
        let base = role.next_lsn.get();
        let msg = encode_batch(base, chunk);
        match ship.call_with_recovery(thread, &msg, &cfg.recovery).await {
            Ok(out) => {
                let acked = decode_ack(&out.data).expect("backup sent a well-formed ack");
                debug_assert_eq!(acked, base + chunk.len() as u64, "backup ack out of order");
                role.next_lsn.set(base + chunk.len() as u64);
                role.shipped_entries
                    .set(role.shipped_entries.get() + chunk.len() as u64);
                role.shipped_batches.set(role.shipped_batches.get() + 1);
            }
            Err(_) => return false,
        }
    }
    true
}

/// Runs the primary forever: scan the client connections, apply every
/// request to `partition`, ship the scan's mutations to the backup over
/// `ship`, and answer clients per the ack policy.
///
/// With `cfg.enabled == false` this is the plain serve loop: requests
/// are applied and answered in place and `ship`/`role` are never
/// touched.
async fn primary_serve_loop(
    thread: Rc<ThreadCtx>,
    conns: Vec<Rc<RfpServerConn>>,
    partition: Rc<RefCell<Partition>>,
    ship: Rc<RfpClient>,
    cfg: ReplicationConfig,
    role: Rc<PrimaryRole>,
    spin: SimSpan,
) {
    assert!(!conns.is_empty(), "primary with no client connections");
    loop {
        if crashed(&thread) {
            park(&thread, spin).await;
            continue;
        }
        let mut served_any = false;
        // This scan's mutation log and (sync mode) the responses held
        // back until it is replicated.
        let mut log: Vec<Vec<u8>> = Vec::new();
        let mut held: Vec<(Rc<RfpServerConn>, Vec<u8>)> = Vec::new();
        'conns: for conn in &conns {
            for _ in 0..conn.window() {
                if crashed(&thread) {
                    break 'conns;
                }
                let Some(req) = conn.try_recv(&thread).await else {
                    break;
                };
                let (resp, work, mutating) = {
                    let parsed = KvRequest::decode(&req).expect("client sent well-formed request");
                    let mutating =
                        matches!(parsed, KvRequest::Put { .. } | KvRequest::Delete { .. });
                    let (resp, work) = apply_to_partition(&mut partition.borrow_mut(), &parsed);
                    (resp, work, mutating)
                };
                if !work.is_zero() {
                    thread.busy(work).await;
                }
                if crashed(&thread) {
                    // Died mid-request: the half-done work (and any
                    // held responses) die with the process.
                    break 'conns;
                }
                served_any = true;
                if cfg.enabled && mutating {
                    role.applied_mutations.set(role.applied_mutations.get() + 1);
                }
                if cfg.enabled && mutating && !role.solo.get() {
                    log.push(req);
                    match cfg.ack {
                        AckPolicy::Sync => held.push((Rc::clone(conn), resp.encode())),
                        AckPolicy::Async => conn.send(&thread, &resp.encode()).await,
                    }
                } else {
                    conn.send(&thread, &resp.encode()).await;
                }
            }
        }
        if !log.is_empty()
            && !crashed(&thread)
            && !ship_log(&thread, &ship, &cfg, &role, &log).await
            && !crashed(&thread)
        {
            // The backup stopped acking: demote to solo serving. The
            // held responses below are still answered — the primary
            // holds the authoritative copy.
            role.solo.set(true);
        }
        for (conn, resp) in held {
            if crashed(&thread) {
                break;
            }
            conn.send(&thread, &resp).await;
        }
        if !served_any {
            thread.busy(spin).await;
        }
    }
}

/// Runs the backup forever. In **standby** it drains the replication
/// connection, applies log batches in LSN order and acks them. The
/// client-facing connections are left unpolled (a client that fails
/// over early finds no service and bounces back) — unless
/// [`BackupRole::standby_reads`] is set, in which case standby also
/// answers GETs from the replicated partition and refuses mutations
/// with `Busy` without executing them. After [`BackupRole::promote`]
/// it flips: the log channel is ignored and the client connections are
/// served fully from the replicated partition.
async fn backup_serve_loop(
    thread: Rc<ThreadCtx>,
    repl_conn: Rc<RfpServerConn>,
    client_conns: Vec<Rc<RfpServerConn>>,
    partition: Rc<RefCell<Partition>>,
    role: Rc<BackupRole>,
    spin: SimSpan,
) {
    loop {
        if crashed(&thread) {
            park(&thread, spin).await;
            continue;
        }
        let mut served_any = false;
        if !role.promoted.get() {
            while let Some(msg) = repl_conn.try_recv(&thread).await {
                served_any = true;
                let (base, entries) = decode_batch(&msg).expect("primary sent a well-formed batch");
                let expected = role.expected_lsn.get();
                if base + entries.len() as u64 <= expected {
                    // A stale re-ship whose ack was lost: already
                    // applied, just re-ack the current frontier.
                    repl_conn.send(&thread, &encode_ack(expected)).await;
                    continue;
                }
                assert_eq!(base, expected, "replication log gap");
                for entry in &entries {
                    let parsed =
                        KvRequest::decode(entry).expect("primary shipped well-formed entry");
                    let (_, work) = apply_to_partition(&mut partition.borrow_mut(), &parsed);
                    if !work.is_zero() {
                        thread.busy(work).await;
                    }
                    role.applied.set(role.applied.get() + 1);
                }
                if crashed(&thread) {
                    break;
                }
                let next = expected + entries.len() as u64;
                role.expected_lsn.set(next);
                repl_conn.send(&thread, &encode_ack(next)).await;
            }
            if role.standby_reads.get() && !crashed(&thread) {
                'standby: for conn in &client_conns {
                    for _ in 0..conn.window() {
                        if crashed(&thread) {
                            break 'standby;
                        }
                        let Some(req) = conn.try_recv(&thread).await else {
                            break;
                        };
                        let parsed =
                            KvRequest::decode(&req).expect("client sent well-formed request");
                        if matches!(parsed, KvRequest::Put { .. } | KvRequest::Delete { .. }) {
                            // Refuse without executing: `Busy` marks the
                            // mutation provably-not-applied, so its
                            // issuer resubmits on the primary under a
                            // fresh seq — a hedged write can never
                            // double-apply through a standby.
                            role.refused_mutations.set(role.refused_mutations.get() + 1);
                            conn.reject(&thread, RespStatus::Busy).await;
                            continue;
                        }
                        let (resp, work) = apply_to_partition(&mut partition.borrow_mut(), &parsed);
                        if !work.is_zero() {
                            thread.busy(work).await;
                        }
                        if crashed(&thread) {
                            break 'standby;
                        }
                        conn.send(&thread, &resp.encode()).await;
                        role.served_reads.set(role.served_reads.get() + 1);
                        served_any = true;
                    }
                }
            }
        } else {
            'conns: for conn in &client_conns {
                for _ in 0..conn.window() {
                    if crashed(&thread) {
                        break 'conns;
                    }
                    let Some(req) = conn.try_recv(&thread).await else {
                        break;
                    };
                    let (resp, work) = {
                        let parsed =
                            KvRequest::decode(&req).expect("client sent well-formed request");
                        apply_to_partition(&mut partition.borrow_mut(), &parsed)
                    };
                    if !work.is_zero() {
                        thread.busy(work).await;
                    }
                    if crashed(&thread) {
                        break 'conns;
                    }
                    conn.send(&thread, &resp.encode()).await;
                    served_any = true;
                }
            }
        }
        if !served_any {
            thread.busy(spin).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_off() {
        let cfg = ReplicationConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.ack, AckPolicy::Sync);
    }

    #[test]
    fn batch_codec_round_trips() {
        let entries = vec![
            KvRequest::Put {
                key: b"k1",
                value: b"v1",
            }
            .encode(),
            KvRequest::Delete { key: b"k2" }.encode(),
        ];
        let buf = encode_batch(42, &entries);
        let (lsn, decoded) = decode_batch(&buf).unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], entries[0].as_slice());
        assert_eq!(decoded[1], entries[1].as_slice());
    }

    #[test]
    fn empty_batch_round_trips() {
        let buf = encode_batch(7, &[]);
        let (lsn, decoded) = decode_batch(&buf).unwrap();
        assert_eq!(lsn, 7);
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncated_batch_errors() {
        let entries = vec![KvRequest::Get { key: b"k" }.encode()];
        let mut buf = encode_batch(0, &entries);
        buf.truncate(buf.len() - 1);
        assert_eq!(decode_batch(&buf), Err(ProtoError::Truncated));
        assert_eq!(decode_ack(&[1, 2, 3]), Err(ProtoError::Truncated));
    }

    #[test]
    fn ack_codec_round_trips() {
        assert_eq!(decode_ack(&encode_ack(u64::MAX)).unwrap(), u64::MAX);
    }
}
