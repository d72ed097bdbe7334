//! The replicated rig's failover preset end-to-end: crash, partition
//! and backup-restart scenarios preserve the replication invariants
//! and leave linearizable histories.

use rfp_chaos::{spawn_replicated_kv, FaultPlan, ReadScope, ReplicatedConfig};
use rfp_kvstore::replica::AckPolicy;
use rfp_simnet::{SimSpan, SimTime, Simulation};
use rfp_workload::check_history;

const FAULT_AT: SimTime = SimTime::from_nanos(40_000);
const DETECT: SimSpan = SimSpan::micros(60);

fn cfg(seed: u64) -> ReplicatedConfig {
    ReplicatedConfig {
        seed,
        ..ReplicatedConfig::failover()
    }
}

#[test]
fn healthy_run_finishes_with_clean_invariants() {
    let mut sim = Simulation::new(41);
    let rig = spawn_replicated_kv(&mut sim, &cfg(41), None, None);
    sim.run_for(SimSpan::millis(30));
    let cfg = cfg(41);
    assert_eq!(rig.state.done_clients.get(), cfg.clients);
    assert_eq!(rig.state.failed_calls.get(), 0);
    assert_eq!(rig.state.lost_acked.get(), 0);
    assert_eq!(rig.state.stale_reads.get(), 0);
    assert_eq!(rig.total_failovers(), 0);
    // Sync replication: everything acked is already on the backup.
    assert_eq!(
        rig.pair.primary_role.shipped_entries.get(),
        rig.pair.backup_role.applied.get()
    );
    assert!(rig.state.max_ops_per_key() <= 128, "history over capacity");
    check_history(&rig.state.history()).expect("healthy history must linearize");
}

#[test]
fn primary_crash_fails_over_without_losing_acked_writes() {
    let mut sim = Simulation::new(42);
    // Crash the primary permanently (downtime past the run window).
    let plan = FaultPlan::new(42).crash(FAULT_AT, SimSpan::millis(100), 0, true);
    let rig = spawn_replicated_kv(&mut sim, &cfg(42), Some(&plan), Some(FAULT_AT + DETECT));
    sim.run_for(SimSpan::millis(40));
    let cfg = cfg(42);
    assert_eq!(rig.state.done_clients.get(), cfg.clients);
    assert_eq!(rig.state.lost_acked.get(), 0, "acked write lost");
    assert_eq!(rig.state.stale_reads.get(), 0, "stale read after failover");
    assert!(rig.total_failovers() >= 1, "nobody failed over");
    assert!(rig.state.promoted_at.get().is_some());
    let t = rig.max_failover_time().expect("failover was timed");
    assert!(t <= SimSpan::millis(5), "failover took {t:?}, budget 5ms");
    check_history(&rig.state.history()).expect("crash history must linearize");
}

#[test]
fn partition_without_promotion_costs_availability_not_consistency() {
    let mut sim = Simulation::new(43);
    // Cut both directions between client machine 2 and the primary for
    // a while; the backup stays standby (the primary is not dead).
    let span = SimSpan::micros(400);
    let plan = FaultPlan::new(43)
        .partition(FAULT_AT, span, 2, 0)
        .partition(FAULT_AT, span, 0, 2);
    let rig = spawn_replicated_kv(&mut sim, &cfg(43), Some(&plan), None);
    sim.run_for(SimSpan::millis(40));
    let cfg = cfg(43);
    assert_eq!(rig.state.done_clients.get(), cfg.clients);
    assert_eq!(rig.state.lost_acked.get(), 0, "acked write lost");
    assert_eq!(
        rig.state.stale_reads.get(),
        0,
        "stale read during partition"
    );
    // Consistency holds even though calls may have failed and the
    // router may have probed the (unpromoted) backup.
    check_history(&rig.state.history()).expect("partition history must linearize");
}

#[test]
fn crash_runs_are_deterministic_per_seed() {
    let run = || {
        let mut sim = Simulation::new(44);
        let plan = FaultPlan::new(44).crash(FAULT_AT, SimSpan::millis(100), 0, true);
        let rig = spawn_replicated_kv(&mut sim, &cfg(44), Some(&plan), Some(FAULT_AT + DETECT));
        sim.run_for(SimSpan::millis(40));
        (
            rig.state.completed.get(),
            rig.state.acked_puts.get(),
            rig.state.failed_calls.get(),
            rig.total_failovers(),
            rig.state.history().len(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn backup_restart_loses_no_acked_write_under_roaming_reads() {
    let mut sim = Simulation::new(45);
    // A warm crash of the backup that restarts mid-workload: the
    // restart hook must rebuild its client-facing connections and the
    // replication link's receive end, while the primary keeps serving.
    let plan = FaultPlan::new(45).crash(FAULT_AT, SimSpan::micros(200), 1, true);
    let cfg = cfg(45);
    assert_eq!(cfg.replication.ack, AckPolicy::Sync);
    assert_eq!(cfg.reads, ReadScope::Roaming);
    let rig = spawn_replicated_kv(&mut sim, &cfg, Some(&plan), None);
    sim.run_for(SimSpan::millis(40));
    assert_eq!(
        rig.sinks.registry.snapshot().scalar("fault.crashes_warm"),
        Some(1.0),
        "the backup crash never fired"
    );
    assert_eq!(rig.state.done_clients.get(), cfg.clients);
    assert_eq!(rig.state.lost_acked.get(), 0, "acked write lost");
    assert_eq!(
        rig.state.stale_reads.get(),
        0,
        "stale read across backup restart"
    );
    assert!(rig.state.max_ops_per_key() <= 128, "history over capacity");
    check_history(&rig.state.history()).expect("backup-restart history must linearize");
}
