//! Property pins of the gray-failure subsystem (ISSUE satellites).
//!
//! Two families:
//!
//! * **Hedging is safe under every chaos fault family** — crash, loss
//!   burst, straggler, QP error, slow link, flaky link, slow server:
//!   with routing + hedging + budgets all on, no hedge or retry ever
//!   applies a write twice (the primary's apply ledger stays within
//!   the issued-PUT ceiling while the server process lives, and every
//!   acked PUT was applied), no acked write is lost, no read runs
//!   backwards, and the full history linearizes. A hedge response
//!   crossing a seq or generation boundary would surface as exactly
//!   one of those violations: the losing leg's late response fails the
//!   next call's seq acceptance, and an epoch-fenced response is never
//!   accepted at all.
//!
//! * **Disabled knobs are byte-identical** — a `GrayConfig` with every
//!   tunable populated but `enabled: false` (plus `call_hedged` on the
//!   read path, which must degrade to plain `call`) produces metrics
//!   CSV and trace output identical, byte for byte, to the stock
//!   pre-gray router — with and without a fail-slow fault firing
//!   mid-run. This pins the design rule that the disabled subsystem is
//!   plain field loads: no RNG draw, no instrument, no wire change.

use proptest::prelude::*;

use rfp_chaos::{spawn_replicated_kv, FaultPlan, ReplicatedConfig};
use rfp_core::{FailoverConfig, GrayConfig, RetryBudgetConfig, ScorerConfig};
use rfp_simnet::{SimSpan, SimTime, Simulation};
use rfp_workload::check_history;

/// Faults strike early enough to overlap the short proptest workload
/// (~300 ops/client at a few µs per op).
const FAULT_AT: SimTime = SimTime::from_nanos(100_000);
const FAULT_SPAN: SimSpan = SimSpan::millis(1);
const WINDOW: SimSpan = SimSpan::millis(4);

/// Every chaos fault family, aimed at `machine` (0 = primary,
/// 1 = backup — the hedge target).
fn family_plan(family: usize, seed: u64, machine: usize) -> FaultPlan {
    let p = FaultPlan::new(seed);
    match family {
        0 => p.crash(FAULT_AT, SimSpan::micros(200), machine, true),
        1 => p.loss_burst(FAULT_AT, FAULT_SPAN, machine, 0.5),
        2 => p.straggler(FAULT_AT, FAULT_SPAN, machine, 8.0),
        3 => p.qp_error(FAULT_AT, machine),
        4 => p.slow_link(FAULT_AT, FAULT_SPAN, machine, 20_000),
        5 => p.flaky_link(FAULT_AT, FAULT_SPAN, machine, 0.9),
        6 => p.slow_server(FAULT_AT, FAULT_SPAN, machine, 16.0),
        _ => unreachable!(),
    }
}

fn small_cfg(seed: u64, gray: GrayConfig, hedged_reads: bool) -> ReplicatedConfig {
    ReplicatedConfig {
        clients: 2,
        keys_per_client: 4,
        ops_per_client: 300,
        hedged_reads,
        failover: FailoverConfig {
            gray,
            ..ReplicatedConfig::gray().failover
        },
        seed,
        ..ReplicatedConfig::gray()
    }
}

/// Runs the rig and returns `(metrics CSV, trace dump)`.
fn run_fingerprint(cfg: &ReplicatedConfig, plan: Option<&FaultPlan>) -> (Vec<u8>, Vec<u8>) {
    let mut sim = Simulation::new(cfg.seed);
    let rig = spawn_replicated_kv(&mut sim, cfg, plan, None);
    sim.run_for(WINDOW);
    let mut csv = Vec::new();
    rig.sinks
        .registry
        .snapshot()
        .write_csv(&mut csv)
        .expect("write csv to vec");
    let mut trace = Vec::new();
    rig.sinks.trace.dump(&mut trace).expect("dump trace to vec");
    assert!(
        rig.state.completed.get() > 0,
        "fingerprint run must do real work"
    );
    (csv, trace)
}

proptest! {
    /// Safety under every chaos fault family (256 cases spread the
    /// seven families over both machines): the write path may fail
    /// calls (a crashed primary with no promotion refuses progress
    /// for its downtime) but can never corrupt the register semantics
    /// hedging relies on.
    #[test]
    fn hedging_is_safe_under_every_fault_family(
        seed in 0u64..10_000,
        family in 0usize..7,
        machine in 0usize..2,
    ) {
        let cfg = small_cfg(seed, GrayConfig::all_on(), true);
        let plan = family_plan(family, seed, machine);
        let mut sim = Simulation::new(seed);
        let rig = spawn_replicated_kv(&mut sim, &cfg, Some(&plan), None);
        sim.run_for(WINDOW);
        let st = &rig.state;
        prop_assert_eq!(
            st.lost_acked.get(), 0,
            "family {} machine {}: lost an acked write", family, machine
        );
        prop_assert_eq!(
            st.stale_reads.get(), 0,
            "family {} machine {}: a read ran backwards", family, machine
        );
        let applied = rig.pair.primary_role.applied_mutations.get();
        // The strict apply ledger pins hedge/retry dedup: while the
        // server process lives, no issued PUT may execute twice. A
        // crash can legitimately re-execute the one request caught
        // between apply and respond (at-least-once across restart —
        // the response-buffer seq only dedups *answered* requests;
        // exactly-once across crash is the epoch-fenced failover
        // protocol's job). The linearizability check below still pins
        // crash-family safety: re-executing the same write is
        // value-idempotent.
        if family != 0 {
            prop_assert!(
                applied <= st.issued_puts.get(),
                "family {family}: duplicate-applied mutation ({applied} applied, {} issued)",
                st.issued_puts.get()
            );
        }
        prop_assert!(
            applied >= st.acked_puts.get(),
            "family {family}: acked more than applied"
        );
        prop_assert!(
            check_history(&st.history()).is_ok(),
            "family {family} machine {machine}: history failed linearizability"
        );
    }

    /// 256-case pin: populated-but-disabled knobs (and the hedged read
    /// entry point) change nothing, byte for byte, fault or no fault.
    #[test]
    fn gray_disabled_is_byte_identical(
        seed in 0u64..100_000,
        max_tokens in 1.0f64..64.0,
        probe_every in 1u32..512,
        hedge_factor in 0.5f64..4.0,
        latency_factor in 1.5f64..8.0,
        gray_seed in 0u64..u64::MAX,
        faulted in any::<bool>(),
    ) {
        let stock = small_cfg(seed, GrayConfig::default(), false);
        let knobs = small_cfg(
            seed,
            GrayConfig {
                enabled: false,
                scored_routing: true,
                hedging: true,
                scorer: ScorerConfig {
                    latency_factor,
                    ..ScorerConfig::default()
                },
                probe_every,
                hedge_p99_factor: hedge_factor,
                budget: RetryBudgetConfig {
                    enabled: true,
                    max_tokens,
                    ..RetryBudgetConfig::default()
                },
                seed: gray_seed,
                ..GrayConfig::default()
            },
            // call_hedged on the read path must degrade to plain call.
            true,
        );
        let plan = faulted.then(|| {
            let span = SimSpan::micros(300);
            FaultPlan::new(seed)
                .slow_link(FAULT_AT, span, 0, 25_000)
                .flaky_link(FAULT_AT + SimSpan::micros(400), span, 0, 0.8)
                .slow_server(FAULT_AT + SimSpan::micros(800), span, 0, 8.0)
        });
        let a = run_fingerprint(&stock, plan.as_ref());
        let b = run_fingerprint(&knobs, plan.as_ref());
        prop_assert_eq!(&a.0, &b.0, "metrics CSV diverged");
        prop_assert_eq!(&a.1, &b.1, "trace diverged");
    }
}

/// A demoted replica recovers: when the fault window closes, recovery
/// probes observe the healed median and the router restores the
/// replica (the `routing.restore` chain fires, cause-linked like the
/// demotion).
#[test]
fn demoted_replica_is_restored_after_the_fault_heals() {
    let seed = 7;
    let mut gray = GrayConfig::all_on();
    gray.probe_every = 8; // fast recovery detection for the test
    let cfg = ReplicatedConfig {
        clients: 2,
        // 2_000 ops over 32 keys stays under the linearizability
        // checker's 128-op-per-key search cap.
        keys_per_client: 32,
        ops_per_client: 2_000,
        hedged_reads: true,
        failover: FailoverConfig {
            gray,
            ..ReplicatedConfig::gray().failover
        },
        seed,
        ..ReplicatedConfig::gray()
    };
    // The fault heals at 3ms, well before the 2_000-op workload
    // drains, so plenty of post-heal traffic reaches the probes.
    let plan = FaultPlan::new(seed).slow_link(
        SimTime::from_nanos(1_000_000),
        SimSpan::millis(2),
        0,
        30_000,
    );
    let mut sim = Simulation::new(seed);
    let rig = spawn_replicated_kv(&mut sim, &cfg, Some(&plan), None);
    sim.run_for(SimSpan::millis(20));
    assert!(
        rig.sinks.registry.counter("routing.demote").get() >= 1,
        "the fault window must demote the primary"
    );
    assert!(
        rig.sinks.registry.counter("routing.restore").get() >= 1,
        "probes must restore the healed primary"
    );
    assert!(
        rig.routers.iter().all(|r| !r.is_demoted(0)),
        "primary still demoted long after the fault healed"
    );
    assert_eq!(rig.state.lost_acked.get(), 0);
    assert!(check_history(&rig.state.history()).is_ok());
}
