//! Chaos ablation: the Jakiro-style rig under each fault class.
//!
//! Runs one scenario per fault class (plus a fault-free baseline and a
//! seeded mixed plan) on the recovery-enabled chaos rig and reports, per
//! scenario, throughput, recovery effort, recovery time, and the two
//! safety invariants (lost acked writes, stale reads). Fully
//! deterministic per seed: running twice with the same seed prints the
//! same bytes.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin chaos [seed]
//! ```

use rfp_bench::telemetry::{bench_registry, emit_bench_json};
use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_core::OverloadConfig;
use rfp_simnet::{SimSpan, SimTime, Simulation};

/// Faults strike after this much warm-up…
const FAULT_AT: SimTime = SimTime::from_nanos(2_000_000);
/// …and every scenario runs this long in total.
const WINDOW: SimSpan = SimSpan::millis(8);
/// Duration of windowed faults (bursts, degradation, stragglers).
const FAULT_SPAN: SimSpan = SimSpan::millis(1);
/// Server downtime of crash scenarios.
const DOWNTIME: SimSpan = SimSpan::micros(300);

/// One row of the ablation: a fault plan, optionally run with overload
/// control armed.
struct Scenario {
    name: &'static str,
    plan: Option<FaultPlan>,
    /// Arm credit-based admission and deadline-aware shedding. The
    /// deadline is generous (well above healthy latency), so only
    /// genuine pile-ups — the straggler window — shed.
    overload: bool,
}

fn scenarios(seed: u64) -> Vec<Scenario> {
    let sc = |name, plan| Scenario {
        name,
        plan,
        overload: false,
    };
    vec![
        sc("baseline", None),
        sc(
            "loss_burst",
            Some(FaultPlan::new(seed).loss_burst(FAULT_AT, FAULT_SPAN, 0, 0.3)),
        ),
        sc(
            "link_degrade",
            Some(FaultPlan::new(seed).link_degrade(FAULT_AT, FAULT_SPAN, 8.0)),
        ),
        sc(
            "straggler",
            Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, 4.0)),
        ),
        sc("qp_error", Some(FaultPlan::new(seed).qp_error(FAULT_AT, 0))),
        sc(
            "warm_restart",
            Some(FaultPlan::new(seed).crash(FAULT_AT, DOWNTIME, 0, true)),
        ),
        sc(
            "cold_restart",
            Some(FaultPlan::new(seed).crash(FAULT_AT, DOWNTIME, 0, false)),
        ),
        sc(
            "mixed",
            Some(FaultPlan::random(
                seed,
                6,
                FAULT_AT,
                FAULT_AT + SimSpan::millis(4),
                4,
            )),
        ),
        // Overload control composed with a severe straggler core:
        // requests stuck behind the slow thread miss their deadline and
        // are shed instead of queueing; both safety invariants must
        // still hold, because a shed request was never executed.
        Scenario {
            name: "overload_straggler",
            plan: Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, 64.0)),
            overload: true,
        },
    ]
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse::<u64>().expect("seed must be a u64"))
        .unwrap_or(42);

    println!("# chaos ablation: Jakiro-style rig with client-side recovery");
    println!(
        "# seed={seed} window={}ms fault_at=2ms",
        WINDOW.as_nanos() / 1_000_000
    );
    println!(
        "scenario,completed,acked_puts,failed_calls,lost_acked,stale_reads,\
         recovery_us_max,resubmits,reconnects,deadlines,verb_errors,faults_fired,\
         rejected,busy_rejects,sheds"
    );

    let bench = bench_registry();
    for Scenario {
        name,
        plan,
        overload,
    } in scenarios(seed)
    {
        let mut sim = Simulation::new(seed);
        let mut cfg = ChaosConfig {
            seed,
            ..ChaosConfig::default()
        };
        if overload {
            cfg.overload = OverloadConfig {
                enabled: true,
                deadline: SimSpan::micros(25),
                ..OverloadConfig::default()
            };
        }
        let rig = spawn_chaos_kv(&mut sim, &cfg, plan.as_ref());
        sim.run_for(WINDOW);

        let snap = rig.sinks.registry.snapshot();
        let scalar = |n: &str| snap.scalar(n).unwrap_or(0.0) as u64;
        let faults_fired = [
            "fault.loss_bursts",
            "fault.link_degrades",
            "fault.stragglers",
            "fault.qp_errors",
            "fault.crashes_warm",
            "fault.crashes_cold",
        ]
        .iter()
        .map(|n| scalar(n))
        .sum::<u64>();
        let recovery_us = rig
            .max_recovery_time()
            .map(|s| s.as_nanos() / 1_000)
            .unwrap_or(0);
        let st = &rig.state;
        // Server-side admission verdicts (lazy counters: zero — and
        // absent — when overload is off).
        let busy_rejects = scalar("overload.busy_rejections");
        let sheds = scalar("overload.sheds");
        println!(
            "{name},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            st.completed.get(),
            st.acked_puts.get(),
            st.failed_calls.get(),
            st.lost_acked.get(),
            st.stale_reads.get(),
            recovery_us,
            scalar("recovery.resubmits"),
            scalar("recovery.reconnects"),
            scalar("recovery.deadlines"),
            scalar("recovery.verb_errors"),
            faults_fired,
            st.rejected_calls.get(),
            busy_rejects,
            sheds,
        );

        for (metric, value) in [
            ("completed", st.completed.get()),
            ("lost_acked", st.lost_acked.get()),
            ("stale_reads", st.stale_reads.get()),
            ("recovery_us_max", recovery_us),
            ("rejected", st.rejected_calls.get()),
            ("sheds", sheds),
        ] {
            bench
                .counter(&format!("bench.chaos.{name}.{metric}"))
                .add(value);
        }

        // The headline safety claims, checked on every run.
        assert_eq!(
            st.stale_reads.get(),
            0,
            "{name}: stale pre-wipe data surfaced"
        );
        if name != "mixed" {
            // The mixed plan may crash cold mid-call in ways that lose
            // unacked writes (fine) but single-fault scenarios must keep
            // the strict invariant.
            assert_eq!(st.lost_acked.get(), 0, "{name}: an acked write was lost");
        }
    }

    let path = emit_bench_json("chaos").expect("write bench json");
    eprintln!("# bench registry exported to {}", path.display());
}
