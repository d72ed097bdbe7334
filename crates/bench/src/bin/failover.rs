//! Failover sweep: the replicated KV rig under crash and partition
//! faults, across ack policies and load, plus the steady-state
//! replication tax on the headline 32 B bar.
//!
//! Part one runs the replicated rig's failover preset (primary/backup
//! replication, epoch-fenced promotion, client-side replica routing)
//! through `{primary_crash, partition} x {sync, async} x {light, heavy}` and
//! reports, per cell, the safety counters, the failover count and
//! timing, and whether the recorded operation history passes the
//! linearizability checker. Sync cells must show **zero lost acked
//! writes, zero stale reads, and a linearizable history** — asserted on
//! every run. Async cells report the same columns to expose the
//! acked-but-unreplicated window; nothing is asserted about their
//! losses (that trade is the point of measuring them).
//!
//! Part two measures the replication tax: a GET-heavy (95/5) closed
//! loop with 16 concurrent workers and 32 B values against the same
//! primary, with replication off / sync / async. The sync bar must stay
//! within 5% of the replication-off bar.
//!
//! Fully deterministic per seed: running twice with the same seed
//! prints the same bytes.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin failover [seed]
//! ```

use std::cell::Cell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rfp_bench::telemetry::{bench_registry, emit_bench_json};
use rfp_chaos::{spawn_replicated_kv, FaultPlan, ReplicatedConfig};
use rfp_core::{connect, RfpConfig};
use rfp_kvstore::replica::{AckPolicy, ReplicaPair, ReplicationConfig};
use rfp_kvstore::KvRequest;
use rfp_rnic::{Cluster, ClusterProfile};
use rfp_simnet::{derive_seed, SimSpan, SimTime, Simulation};
use rfp_workload::check_history;

/// Faults strike after this much warm-up…
const FAULT_AT: SimTime = SimTime::from_nanos(40_000);
/// …and the failure detector promotes the backup this much later.
const DETECT: SimSpan = SimSpan::micros(60);
/// Asymmetric-cut duration for partition scenarios.
const PARTITION_SPAN: SimSpan = SimSpan::micros(400);
/// Every failover scenario runs this long (well past every client's op
/// budget, so stragglers finish even with faults in the way).
const WINDOW: SimSpan = SimSpan::millis(40);
/// Acceptance bound on client-observed failover time.
const FAILOVER_BUDGET: SimSpan = SimSpan::millis(5);

/// Workers in the replication-tax closed loop (the headline W=16 bar).
const TAX_WORKERS: usize = 16;
/// Value size of the tax workload (the headline 32 B bar).
const TAX_VALUE: usize = 32;
/// PUT fraction of the tax workload (GET-heavy, as the paper runs it).
const TAX_PUT_RATIO: f64 = 0.05;
/// Measurement window of each tax run.
const TAX_WINDOW: SimSpan = SimSpan::millis(5);
/// Maximum tolerated sync-replication throughput tax.
const TAX_BOUND: f64 = 0.05;

fn ack_name(ack: AckPolicy) -> &'static str {
    match ack {
        AckPolicy::Sync => "sync",
        AckPolicy::Async => "async",
    }
}

fn run_scenario(seed: u64, scenario: &str, ack: AckPolicy, clients: usize) {
    let mut sim = Simulation::new(seed);
    let cfg = ReplicatedConfig {
        clients,
        replication: ReplicationConfig {
            enabled: true,
            ack,
            ..ReplicationConfig::default()
        },
        seed,
        ..ReplicatedConfig::failover()
    };
    let (plan, promote_at) = match scenario {
        // The primary dies for good: downtime outlives the run.
        "crash" => (
            FaultPlan::new(seed).crash(FAULT_AT, SimSpan::millis(100), 0, true),
            Some(FAULT_AT + DETECT),
        ),
        // A both-direction cut between the first client machine and the
        // primary; the primary is alive, so nobody promotes.
        "partition" => (
            FaultPlan::new(seed)
                .partition(FAULT_AT, PARTITION_SPAN, 2, 0)
                .partition(FAULT_AT, PARTITION_SPAN, 0, 2),
            None,
        ),
        other => panic!("unknown scenario {other}"),
    };
    let rig = spawn_replicated_kv(&mut sim, &cfg, Some(&plan), promote_at);
    sim.run_for(WINDOW);

    let st = &rig.state;
    assert_eq!(
        st.done_clients.get(),
        clients,
        "{scenario}/{}/{clients}: a client never finished",
        ack_name(ack)
    );
    let history = st.history();
    let linearizable = check_history(&history).is_ok();
    let failover_us = rig
        .max_failover_time()
        .map(|s| s.as_nanos() / 1_000)
        .unwrap_or(0);
    println!(
        "{scenario},{},{clients},{},{},{},{},{},{},{failover_us},{},{},{}",
        ack_name(ack),
        st.completed.get(),
        st.acked_puts.get(),
        st.failed_calls.get(),
        st.lost_acked.get(),
        st.stale_reads.get(),
        rig.total_failovers(),
        st.promoted_at.get().is_some() as u32,
        history.len(),
        linearizable as u32,
    );

    let bench = bench_registry();
    let row = format!("bench.failover.{scenario}_{}_{clients}", ack_name(ack));
    for (metric, value) in [
        ("completed", st.completed.get()),
        ("lost_acked", st.lost_acked.get()),
        ("stale_reads", st.stale_reads.get()),
        ("failovers", rig.total_failovers()),
        ("failover_us_max", failover_us),
        ("linearizable", linearizable as u64),
    ] {
        bench.counter(&format!("{row}.{metric}")).add(value);
    }

    // The headline safety claims. Sync mode: an acked write is a
    // replicated write, so no crash or cut may lose one, no read may
    // run backwards, and the surviving history must linearize.
    if matches!(ack, AckPolicy::Sync) {
        assert_eq!(
            st.lost_acked.get(),
            0,
            "{scenario}/sync/{clients}: an acked write was lost"
        );
        assert_eq!(
            st.stale_reads.get(),
            0,
            "{scenario}/sync/{clients}: a read ran backwards"
        );
        assert!(
            linearizable,
            "{scenario}/sync/{clients}: history failed the linearizability checker"
        );
    }
    if scenario == "crash" {
        assert!(
            rig.total_failovers() >= 1,
            "{scenario}/{}/{clients}: nobody failed over",
            ack_name(ack)
        );
        let t = rig.max_failover_time().expect("failover was timed");
        assert!(
            t <= FAILOVER_BUDGET,
            "{scenario}/{}/{clients}: failover took {t:?}, budget {FAILOVER_BUDGET:?}",
            ack_name(ack)
        );
    }
}

/// Completed ops of a healthy GET-heavy closed loop against the
/// replicated primary, with replication off (`None`) or on; also
/// returns how many log entries the primary shipped, so a "0% tax"
/// can be told apart from "replication never engaged".
fn tax_run(seed: u64, repl: Option<AckPolicy>) -> (u64, u64) {
    let mut sim = Simulation::new(seed);
    let cluster = Cluster::new(&mut sim, ClusterProfile::paper_testbed(), 3);
    let mut pair = ReplicaPair::connect(&cluster, 1024);

    let completed = Rc::new(Cell::new(0u64));
    for w in 0..TAX_WORKERS {
        let (cl, sc) = connect(
            &cluster.machine(2),
            &cluster.machine(0),
            cluster.qp(2, 0),
            cluster.qp(0, 2),
            RfpConfig {
                enable_mode_switch: false,
                ..RfpConfig::default()
            },
        );
        pair.attach(0, Rc::new(sc));
        let thread = cluster.machine(2).thread(format!("tax-w{w}"));
        let done = Rc::clone(&completed);
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x7A_0000 + w as u64));
        sim.spawn(async move {
            let key = format!("t{w}").into_bytes();
            let value = [0xABu8; TAX_VALUE];
            // Seed the key so the GET stream observes real hits.
            let req = KvRequest::Put {
                key: &key,
                value: &value,
            }
            .encode();
            cl.call(&thread, &req).await;
            loop {
                let req = if rng.gen::<f64>() < TAX_PUT_RATIO {
                    KvRequest::Put {
                        key: &key,
                        value: &value,
                    }
                    .encode()
                } else {
                    KvRequest::Get { key: &key }.encode()
                };
                cl.call(&thread, &req).await;
                done.set(done.get() + 1);
            }
        });
    }

    pair.spawn(
        &mut sim,
        &cluster,
        ReplicationConfig {
            enabled: repl.is_some(),
            ack: repl.unwrap_or(AckPolicy::Sync),
            ..ReplicationConfig::default()
        },
    );
    sim.run_for(TAX_WINDOW);
    assert!(
        !pair.primary_role.solo.get(),
        "tax rig lost its backup mid-measurement"
    );
    (completed.get(), pair.primary_role.shipped_entries.get())
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse::<u64>().expect("seed must be a u64"))
        .unwrap_or(42);

    println!("# failover sweep: replicated KV rig under crash/partition faults");
    println!(
        "# seed={seed} fault_at={}us detect={}us window={}ms",
        FAULT_AT.as_nanos() / 1_000,
        DETECT.as_nanos() / 1_000,
        WINDOW.as_nanos() / 1_000_000
    );
    println!(
        "scenario,ack,clients,completed,acked_puts,failed_calls,lost_acked,stale_reads,\
         failovers,promoted,failover_us_max,hist_ops,linearizable"
    );
    for scenario in ["crash", "partition"] {
        for ack in [AckPolicy::Sync, AckPolicy::Async] {
            for clients in [2usize, 4] {
                run_scenario(seed, scenario, ack, clients);
            }
        }
    }

    println!("# replication tax: GET-heavy 32B closed loop, {TAX_WORKERS} workers");
    println!("mode,ops,shipped,mops_per_s,tax_pct");
    let (off, _) = tax_run(seed, None);
    let secs = TAX_WINDOW.as_nanos() as f64 / 1e9;
    let bench = bench_registry();
    let mut sync_ops = 0;
    for (mode, (ops, shipped)) in [
        ("off", (off, 0)),
        ("sync", tax_run(seed, Some(AckPolicy::Sync))),
        ("async", tax_run(seed, Some(AckPolicy::Async))),
    ] {
        let tax = 1.0 - ops as f64 / off as f64;
        println!(
            "{mode},{ops},{shipped},{:.3},{:.2}",
            ops as f64 / secs / 1e6,
            tax * 100.0
        );
        if mode != "off" {
            assert!(shipped > 0, "{mode}: replication never shipped an entry");
        }
        bench
            .counter(&format!("bench.failover.tax.{mode}_ops"))
            .add(ops);
        if mode == "sync" {
            sync_ops = ops;
            // Whole basis points are enough resolution for the pin.
            bench
                .counter("bench.failover.tax.sync_tax_bp")
                .add((tax * 10_000.0).max(0.0) as u64);
        }
    }
    assert!(
        sync_ops as f64 >= off as f64 * (1.0 - TAX_BOUND),
        "sync replication tax exceeds {:.0}%: {sync_ops} vs {off} ops",
        TAX_BOUND * 100.0
    );

    let path = emit_bench_json("failover").expect("write bench json");
    eprintln!("# bench registry exported to {}", path.display());
}
