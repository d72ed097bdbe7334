//! Primary/backup replication end-to-end: sync log shipping, epoch
//! promotion, and failover through the replica router.

use std::cell::Cell;
use std::rc::Rc;

use rfp_core::{connect, FailoverConfig, RecoveryConfig, ReplicaClient, RfpClient, RfpConfig};
use rfp_kvstore::replica::{AckPolicy, ReplicaPair, ReplicationConfig};
use rfp_kvstore::{KvRequest, KvResponse};
use rfp_rnic::{Cluster, ClusterProfile, ThreadCtx};
use rfp_simnet::{RetryPolicy, SimSpan, Simulation};

/// Machine 0 = primary, 1 = backup, 2 = client.
struct Rig {
    sim: Simulation,
    cluster: Cluster,
    router: Rc<ReplicaClient>,
    client_thread: Rc<ThreadCtx>,
    pair: ReplicaPair,
}

fn plain_cfg() -> RfpConfig {
    RfpConfig {
        enable_mode_switch: false,
        ..RfpConfig::default()
    }
}

fn short_recovery(seed: u64) -> RecoveryConfig {
    RecoveryConfig {
        retry: RetryPolicy::exponential(3, SimSpan::micros(5), SimSpan::micros(50), 0.2),
        seed,
        ..RecoveryConfig::default()
    }
}

fn rig(ack: AckPolicy) -> Rig {
    let mut sim = Simulation::new(77);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 3);
    let mut pair = ReplicaPair::connect(&cluster, 256);

    // Client links to both replicas.
    let replicas: Vec<Rc<RfpClient>> = (0..2)
        .map(|replica| {
            let (cl, sc) = connect(
                &cluster.machine(2),
                &cluster.machine(replica),
                cluster.qp(2, replica),
                cluster.qp(replica, 2),
                plain_cfg(),
            );
            cl.set_reconnect(cluster.qp_factory(2, replica));
            pair.attach(replica, Rc::new(sc));
            Rc::new(cl)
        })
        .collect();
    pair.spawn(
        &mut sim,
        &cluster,
        ReplicationConfig {
            enabled: true,
            ack,
            batch: 4,
            recovery: short_recovery(0xA11),
        },
    );

    let router = Rc::new(ReplicaClient::new(
        replicas,
        FailoverConfig {
            recovery: short_recovery(0xB22),
            max_failovers: 4,
            ..FailoverConfig::default()
        },
    ));
    Rig {
        client_thread: cluster.machine(2).thread("client"),
        sim,
        cluster,
        router,
        pair,
    }
}

fn put(i: u32) -> Vec<u8> {
    KvRequest::Put {
        key: format!("k{i}").into_bytes().as_slice(),
        value: format!("v{i}").into_bytes().as_slice(),
    }
    .encode()
}

#[test]
fn sync_replication_ships_every_put() {
    let mut r = rig(AckPolicy::Sync);
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..10u32 {
            let out = router.call(&t, &put(i)).await.expect("healthy put");
            assert_eq!(KvResponse::decode(&out.data).unwrap(), KvResponse::Stored);
            d.set(d.get() + 1);
        }
    });
    r.sim.run_for(SimSpan::millis(10));
    assert_eq!(done.get(), 10);
    assert_eq!(r.pair.primary_role.shipped_entries.get(), 10);
    assert_eq!(r.pair.backup_role.applied.get(), 10);
    assert!(!r.pair.primary_role.solo.get());
    // Every acked PUT is already on the backup — the sync invariant.
    for i in 0..10u32 {
        let key = format!("k{i}").into_bytes();
        assert_eq!(
            r.pair.backup_part.borrow_mut().get(&key),
            Some(format!("v{i}").as_bytes()),
            "k{i} missing on backup"
        );
    }
}

#[test]
fn primary_crash_promotes_backup_with_replicated_data() {
    let mut r = rig(AckPolicy::Sync);
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    let cluster_primary = r.cluster.machine(0);
    let backup_role = Rc::clone(&r.pair.backup_role);
    let backup_conns = r.pair.backup_conns.clone();
    let phase = Rc::new(Cell::new(0u32));
    let ph = Rc::clone(&phase);
    r.sim.spawn(async move {
        // Phase 1: replicate five writes through the primary.
        for i in 0..5u32 {
            router.call(&t, &put(i)).await.expect("pre-crash put");
        }
        ph.set(1);
        // The failure detector: crash the primary, promote the backup
        // into epoch 1.
        cluster_primary.faults().set_crashed(true);
        backup_role.promote(&backup_conns, 1);
        // Phase 2: reads and writes continue against the promoted
        // backup; pre-crash acked writes are all there.
        for i in 0..5u32 {
            let req = KvRequest::Get {
                key: format!("k{i}").into_bytes().as_slice(),
            }
            .encode();
            let out = router.call(&t, &req).await.expect("post-failover get");
            assert_eq!(
                KvResponse::decode(&out.data).unwrap(),
                KvResponse::Found(format!("v{i}").into_bytes()),
                "acked write k{i} lost in failover"
            );
        }
        let out = router.call(&t, &put(99)).await.expect("post-failover put");
        assert_eq!(KvResponse::decode(&out.data).unwrap(), KvResponse::Stored);
        ph.set(2);
    });
    r.sim.run_for(SimSpan::millis(50));
    assert_eq!(phase.get(), 2);
    assert_eq!(r.router.active(), 1);
    assert!(r.router.failovers() >= 1);
    assert_eq!(r.router.known_epoch(), 1);
    // The post-failover write landed on the backup, not the primary.
    assert_eq!(
        r.pair.backup_part.borrow_mut().get(b"k99".as_slice()),
        Some(b"v99".as_slice())
    );
    assert_eq!(
        r.pair.primary_part.borrow_mut().get(b"k99".as_slice()),
        None
    );
}

#[test]
fn backup_crash_demotes_primary_to_solo() {
    let mut r = rig(AckPolicy::Sync);
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    let cluster_backup = r.cluster.machine(1);
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..3u32 {
            router.call(&t, &put(i)).await.expect("replicated put");
        }
        cluster_backup.faults().set_crashed(true);
        // Writes keep succeeding: the primary exhausts its ship budget,
        // declares the backup dead, and serves solo.
        for i in 3..6u32 {
            router.call(&t, &put(i)).await.expect("solo put");
        }
        d.set(1);
    });
    r.sim.run_for(SimSpan::millis(50));
    assert_eq!(done.get(), 1);
    assert!(r.pair.primary_role.solo.get());
    assert_eq!(r.pair.primary_role.shipped_entries.get(), 3);
    for i in 0..6u32 {
        let key = format!("k{i}").into_bytes();
        assert!(
            r.pair.primary_part.borrow_mut().get(&key).is_some(),
            "k{i} lost"
        );
    }
}

#[test]
fn async_ack_does_not_hold_responses() {
    let mut r = rig(AckPolicy::Async);
    let router = Rc::clone(&r.router);
    let t = Rc::clone(&r.client_thread);
    let done = Rc::new(Cell::new(0u32));
    let d = Rc::clone(&done);
    r.sim.spawn(async move {
        for i in 0..8u32 {
            router.call(&t, &put(i)).await.expect("async put");
            d.set(d.get() + 1);
        }
    });
    r.sim.run_for(SimSpan::millis(10));
    assert_eq!(done.get(), 8);
    // The log still ships (at scan end), just off the ack path.
    assert_eq!(r.pair.primary_role.shipped_entries.get(), 8);
    assert_eq!(r.pair.backup_role.applied.get(), 8);
}
