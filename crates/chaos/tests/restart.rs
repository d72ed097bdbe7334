//! Crash/restart recovery invariants on the chaos rig.
//!
//! The contract under test (ISSUE satellite): across a **warm** server
//! restart no acknowledged PUT may be lost, and after a **cold** restart
//! clients must see fresh errors (`NotFound`) rather than stale
//! pre-crash data.

use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_simnet::{SimSpan, SimTime, Simulation};

fn crash_plan(warm: bool) -> FaultPlan {
    FaultPlan::new(11).crash(
        SimTime::from_nanos(2_000_000),
        SimSpan::micros(300),
        0,
        warm,
    )
}

#[test]
fn warm_restart_loses_no_acked_put() {
    let mut sim = Simulation::new(11);
    let cfg = ChaosConfig::default();
    let plan = crash_plan(true);
    let rig = spawn_chaos_kv(&mut sim, &cfg, Some(&plan));

    // Run past the crash window; snapshot progress right before it.
    sim.run_for(SimSpan::millis(2));
    let before = rig.state.completed.get();
    assert!(
        rig.state.acked_puts.get() > 0,
        "rig must ack PUTs before the crash"
    );
    sim.run_for(SimSpan::millis(6));

    assert_eq!(rig.state.restarts.get(), 1, "exactly one restart cycle");
    assert_eq!(
        rig.state.lost_acked.get(),
        0,
        "an acked PUT vanished across a warm restart"
    );
    assert_eq!(rig.state.stale_reads.get(), 0);
    assert!(
        rig.state.completed.get() > before,
        "clients must make progress after the restart"
    );
    // Every client recovered, within a bounded span: downtime (300µs)
    // plus backoff and resubmission, far under the full run window.
    let worst = rig
        .max_recovery_time()
        .expect("at least one recovered call was timed");
    assert!(
        worst < SimSpan::millis(3),
        "recovery took {worst:?}, expected well under 3ms"
    );
    // The injector accounted the fault it delivered.
    assert_eq!(
        rig.sinks.registry.snapshot().scalar("fault.crashes_warm"),
        Some(1.0)
    );
}

#[test]
fn cold_restart_surfaces_errors_not_stale_data() {
    let mut sim = Simulation::new(11);
    let cfg = ChaosConfig::default();
    let plan = crash_plan(false);
    let rig = spawn_chaos_kv(&mut sim, &cfg, Some(&plan));

    sim.run_for(SimSpan::millis(2));
    let not_found_before = rig.state.not_found.get();
    assert!(rig.state.acked_puts.get() > 0);
    sim.run_for(SimSpan::millis(6));

    assert_eq!(rig.state.restarts.get(), 1);
    // Data written before the wipe is legitimately gone: the ledgers
    // were reset, so the misses below are *not* lost-acked violations…
    assert_eq!(rig.state.lost_acked.get(), 0);
    // …but they must exist: the wiped keys read back as NotFound.
    assert!(
        rig.state.not_found.get() > not_found_before,
        "cold restart must surface NotFound for wiped keys"
    );
    // And no GET may surface a pre-wipe version.
    assert_eq!(
        rig.state.stale_reads.get(),
        0,
        "a pre-crash value surfaced after the cold wipe"
    );
    assert_eq!(
        rig.sinks.registry.snapshot().scalar("fault.crashes_cold"),
        Some(1.0)
    );
}

#[test]
fn qp_error_recovers_via_reconnect() {
    let mut sim = Simulation::new(11);
    let cfg = ChaosConfig::default();
    let plan = FaultPlan::new(11).qp_error(SimTime::from_nanos(2_000_000), 0);
    let rig = spawn_chaos_kv(&mut sim, &cfg, Some(&plan));

    sim.run_for(SimSpan::millis(2));
    let before = rig.state.completed.get();
    sim.run_for(SimSpan::millis(4));

    let snap = rig.sinks.registry.snapshot();
    assert_eq!(snap.scalar("fault.qp_errors"), Some(1.0));
    assert!(
        snap.scalar("recovery.reconnects").unwrap_or(0.0) >= 1.0,
        "every client touching the errored QPs must re-establish"
    );
    assert!(rig.state.completed.get() > before);
    assert_eq!(rig.state.lost_acked.get(), 0);
    assert_eq!(
        rig.state.failed_calls.get(),
        0,
        "a single QP error must be absorbed within the retry budget"
    );
}
