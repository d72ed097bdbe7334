//! Doctor: fleet diagnosis on the chaos, replicated and multi-core rigs.
//!
//! Runs one scenario per injected fault class (plus a clean baseline)
//! through the always-on observability plane — flight recorder, rolling
//! health windows, anomaly detectors — and asserts the detection
//! matrix: every fault class surfaces as exactly its signature anomaly
//! (plus a small allowed set of incidental ones), and the clean
//! baseline raises nothing at all. Each signature anomaly's
//! dump-on-anomaly bundle must contain the originating `chaos.*` cause
//! chain. Fully deterministic per seed: running twice with the same
//! seed prints the same bytes.
//!
//! ```text
//! cargo run --release -p rfp-bench --bin doctor [seed]
//! ```

use std::cell::Cell;

use rfp_bench::telemetry::{bench_registry, emit_bench_json};
use rfp_chaos::{
    spawn_chaos_kv, spawn_replicated_kv, ChaosConfig, FaultPlan, ReplicatedConfig, RigSinks,
};
use rfp_core::{IntegrityConfig, OverloadConfig};
use rfp_kvstore::{spawn_cores_kv, CoresConfig};
use rfp_simnet::{
    Anomaly, AnomalyConfig, AnomalyDetector, AnomalyKind, DumpBundle, MetricsRegistry, SimSpan,
    SimTime, Simulation,
};

/// Faults strike after this much warm-up…
const FAULT_AT: SimTime = SimTime::from_nanos(2_000_000);
/// …and last this long.
const FAULT_SPAN: SimSpan = SimSpan::millis(1);
/// Server downtime of the crash scenario.
const DOWNTIME: SimSpan = SimSpan::micros(300);

/// The rig a row of the detection matrix runs on.
#[derive(Clone, Copy)]
enum Rig {
    /// The chaos rig; `overload` arms credit-based admission + deadline
    /// shedding.
    Chaos { overload: bool },
    /// The replicated rig's failover preset. A faulted row's crash is
    /// permanent and the failure detector promotes the backup 60 µs
    /// after it.
    Failover,
}

/// The anomaly class a fault must surface as, and the evidence its
/// dump-on-anomaly bundle must carry.
struct Signature {
    kind: AnomalyKind,
    /// The root flight-recorder event the fault leaves in the ring; the
    /// bundle must chain back to it.
    root: &'static str,
    /// Further reaction chains the bundle must contain.
    chains: &'static [&'static str],
}

/// One row of the detection matrix.
struct Scenario {
    name: &'static str,
    rig: Rig,
    plan: Option<FaultPlan>,
    /// `None` for a clean row, which must raise nothing at all.
    signature: Option<Signature>,
    /// Incidental classes the fault may legitimately also raise.
    allowed: &'static [AnomalyKind],
}

fn scenarios(seed: u64) -> Vec<Scenario> {
    use AnomalyKind::*;
    let chaos = Rig::Chaos { overload: false };
    let sig = |kind, root| {
        Some(Signature {
            kind,
            root,
            chains: &[],
        })
    };
    vec![
        Scenario {
            name: "clean",
            rig: chaos,
            plan: None,
            signature: None,
            allowed: &[],
        },
        // A straggling server core leaves deposited requests sitting
        // unserved: the client's fetch polls come back empty over and
        // over — the retry spike is the *distinctive* symptom (latency
        // rises too, but that is the shared symptom of every slowdown).
        Scenario {
            name: "straggler",
            rig: chaos,
            plan: Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, 16.0)),
            signature: sig(RetrySpike, "chaos.straggler"),
            // A straggler is degraded-but-alive, so the rootless
            // regression it causes legitimately co-fires as gray.
            allowed: &[LatencyRegression, GrayFailure],
        },
        // A loss burst on RC never surfaces as errors or retries — the
        // transport retransmits under the covers — so the only client-
        // visible symptom is the latency regression those geometric
        // retransmit rounds produce.
        Scenario {
            name: "loss_burst",
            rig: chaos,
            plan: Some(FaultPlan::new(seed).loss_burst(FAULT_AT, FAULT_SPAN, 0, 0.7)),
            signature: sig(LatencyRegression, "chaos.loss_burst"),
            // RC retransmission leaves no hard-failure root, so the
            // regression also carries the gray-failure signature.
            allowed: &[RetrySpike, GrayFailure],
        },
        // A fail-slow serve loop: every call still completes, nothing
        // errors, sheds, or reconnects — the distinctive symptom is the
        // *rootless* regression the gray-failure detector exists for.
        Scenario {
            name: "gray_slow_server",
            rig: chaos,
            plan: Some(FaultPlan::new(seed).slow_server(FAULT_AT, FAULT_SPAN, 0, 16.0)),
            signature: sig(GrayFailure, "chaos.slow_server"),
            allowed: &[LatencyRegression, RetrySpike],
        },
        // A fail-slow link: the wire itself lags while the RC transport
        // stays error-free — gray again, rooted at `chaos.slow_link`.
        Scenario {
            name: "gray_slow_link",
            rig: chaos,
            plan: Some(FaultPlan::new(seed).slow_link(FAULT_AT, FAULT_SPAN, 0, 20_000)),
            signature: sig(GrayFailure, "chaos.slow_link"),
            allowed: &[LatencyRegression, RetrySpike],
        },
        Scenario {
            name: "bit_flip",
            rig: chaos,
            plan: Some(FaultPlan::new(seed).bit_flip(FAULT_AT, FAULT_SPAN, 0, 0.05)),
            signature: sig(CorruptionBurst, "chaos.bit_flip"),
            allowed: &[LatencyRegression, RetrySpike],
        },
        Scenario {
            name: "overload",
            rig: Rig::Chaos { overload: true },
            plan: Some(FaultPlan::new(seed).straggler(FAULT_AT, FAULT_SPAN, 0, 64.0)),
            signature: sig(OverloadShedding, "chaos.straggler"),
            allowed: &[LatencyRegression, RetrySpike, CreditStarvation],
        },
        Scenario {
            name: "warm_crash",
            rig: chaos,
            plan: Some(FaultPlan::new(seed).crash(FAULT_AT, DOWNTIME, 0, true)),
            signature: sig(ConnectionDrop, "chaos.crash"),
            allowed: &[LatencyRegression, RetrySpike],
        },
        // The replicated rig, clean: nothing may look like a failover
        // when nobody failed over.
        Scenario {
            name: "failover_clean",
            rig: Rig::Failover,
            plan: None,
            signature: None,
            allowed: &[],
        },
        // A primary crash: the bundle must chain the clients'
        // `recovery.failover` reaction back to the `chaos.crash` root.
        Scenario {
            name: "failover",
            rig: Rig::Failover,
            plan: Some(FaultPlan::new(seed).crash(FAULT_AT, SimSpan::millis(100), 0, true)),
            signature: Some(Signature {
                kind: Failover,
                root: "chaos.crash",
                chains: &["recovery.failover"],
            }),
            allowed: &[ConnectionDrop, LatencyRegression, RetrySpike],
        },
    ]
}

/// The CSV column listing the detected classes.
fn detected_column(detected: &[AnomalyKind]) -> String {
    if detected.is_empty() {
        return "none".to_string();
    }
    detected
        .iter()
        .map(|k| k.as_str())
        .collect::<Vec<_>>()
        .join("+")
}

/// Stable-shape export: every (row, kind) cell of the matrix gets a
/// counter, zero or not.
fn export(bench: &MetricsRegistry, name: &str, anomalies: &[Anomaly], completed: u64) {
    for kind in AnomalyKind::all() {
        let count = anomalies.iter().filter(|a| a.kind == kind).count() as u64;
        bench
            .counter(&format!("bench.doctor.{}.{}", name, kind.as_str()))
            .add(count);
    }
    bench
        .counter(&format!("bench.doctor.{name}.completed"))
        .add(completed);
}

/// Drives one row on a freshly spawned rig: warm-up, baseline, fault
/// window, scan, the detection assertions, the dump bundle, the tail,
/// then prints and exports the row.
fn diagnose(
    sim: &mut Simulation,
    sinks: &RigSinks,
    completed: &Cell<u64>,
    row: &Scenario,
    bench: &MetricsRegistry,
) {
    // Phase 1 — warm-up: establish each connection's baseline.
    sim.run_for(FAULT_AT.since(SimTime::ZERO));
    let detector = AnomalyDetector::new(AnomalyConfig::default());
    detector.set_baseline(&sinks.health.report(sim.handle().now()));

    // Phase 2 — the fault window; scan while its effects are still
    // inside the rolling health window.
    sim.run_for(FAULT_SPAN);
    let scan_now = sim.handle().now();
    let report = sinks.health.report(scan_now);
    let anomalies = detector.scan(&report);

    // Detection matrix assertions.
    let mut detected: Vec<AnomalyKind> = anomalies.iter().map(|a| a.kind).collect();
    detected.sort();
    detected.dedup();
    let mut bundle_bytes = 0usize;
    match &row.signature {
        None => assert!(
            anomalies.is_empty(),
            "{}: clean row raised anomalies: {anomalies:?}",
            row.name
        ),
        Some(sig) => {
            assert!(
                detected.contains(&sig.kind),
                "{}: expected {} anomaly, detected {:?} (report: {:?})",
                row.name,
                sig.kind.as_str(),
                detected,
                report.conns
            );
            for kind in &detected {
                assert!(
                    *kind == sig.kind || row.allowed.contains(kind),
                    "{}: unexpected {} anomaly (allowed: {:?})",
                    row.name,
                    kind.as_str(),
                    row.allowed
                );
            }
            // The injected fault's root event must be in the ring.
            assert!(
                sinks.recorder.kind_count(sig.root) >= 1,
                "{}: no {} root event: {:?}",
                row.name,
                sig.root,
                sinks.recorder.kind_counts()
            );

            // Dump-on-anomaly: the bundle of the first signature
            // anomaly must carry the originating cause chain.
            let anomaly = anomalies
                .iter()
                .find(|a| a.kind == sig.kind)
                .expect("signature anomaly present (asserted above)");
            let snap = sinks.registry.snapshot();
            let bundle = DumpBundle {
                anomaly,
                recorder: Some(&sinks.recorder),
                metrics: Some(&snap),
                spans: Some(&sinks.spans),
                window: (FAULT_AT, scan_now),
            };
            let mut dump = Vec::new();
            bundle.write(&mut dump).expect("write bundle to vec");
            let text = String::from_utf8(dump).expect("bundle is utf8");
            for chain in std::iter::once(&sig.root).chain(sig.chains) {
                assert!(
                    text.contains(chain),
                    "{}: dump bundle lost the {chain} cause chain",
                    row.name
                );
            }
            bundle_bytes = text.len();
        }
    }

    // Phase 3 — run out the tail so `completed` reflects a healed rig
    // (the fault window is over; the fleet must keep serving).
    sim.run_for(SimSpan::millis(3));

    let win = report.conns.first();
    println!(
        "{},{},{},{},{:.3},{},{},{}",
        row.name,
        completed.get(),
        win.map(|c| c.calls).unwrap_or(0),
        win.map(|c| c.p99_ns / 1_000).unwrap_or(0),
        win.map(|c| c.retry_rate).unwrap_or(0.0),
        row.signature.as_ref().map_or("none", |s| s.kind.as_str()),
        detected_column(&detected),
        bundle_bytes,
    );
    export(bench, row.name, &anomalies, completed.get());
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse::<u64>().expect("seed must be a u64"))
        .unwrap_or(42);

    println!("# doctor: fault-class detection matrix on the chaos rig");
    println!(
        "# seed={seed} fault_at=2ms fault_span={}ms",
        FAULT_SPAN.as_nanos() / 1_000_000
    );
    println!("scenario,completed,calls_win,p99_us,retry_rate,expected,detected,bundle_bytes");

    let bench = bench_registry();
    for row in scenarios(seed) {
        let mut sim = Simulation::new(seed);
        match row.rig {
            Rig::Chaos { overload } => {
                let mut cfg = ChaosConfig {
                    seed,
                    // Integrity on everywhere so corrupt fetches are
                    // detected and refetched rather than surfaced (the
                    // bit-flip row would otherwise panic in the
                    // response decoder).
                    integrity: IntegrityConfig {
                        enabled: true,
                        ..IntegrityConfig::default()
                    },
                    ..ChaosConfig::default()
                };
                if overload {
                    cfg.overload = OverloadConfig {
                        enabled: true,
                        deadline: SimSpan::micros(25),
                        ..OverloadConfig::default()
                    };
                }
                let rig = spawn_chaos_kv(&mut sim, &cfg, row.plan.as_ref());
                diagnose(&mut sim, &rig.sinks, &rig.state.completed, &row, &bench);
            }
            Rig::Failover => {
                let cfg = ReplicatedConfig {
                    seed,
                    // Enough budget that the clients are still
                    // mid-workload through warm-up, fault window, and
                    // tail.
                    ops_per_client: 4_000,
                    ..ReplicatedConfig::failover()
                };
                let promote_at = row.plan.is_some().then(|| FAULT_AT + SimSpan::micros(60));
                let rig = spawn_replicated_kv(&mut sim, &cfg, row.plan.as_ref(), promote_at);
                diagnose(&mut sim, &rig.sinks, &rig.state.completed, &row, &bench);
            }
        }
    }

    // ---- core-balance rows: the multi-core serve reactor rig ----
    //
    // `cores_clean`: four reactor cores under a uniform keyspace with
    // stealing on — a balanced server must raise nothing (zero false
    // positives). `cores_hot`: the Zipf(0.99) keyspace concentrated on
    // partition 0 with stealing *disabled* — EREW skew nobody levels,
    // which must surface as exactly `core_imbalance`.
    for (name, skew, steal) in [
        ("cores_clean", None, true),
        ("cores_hot", Some(0.99), false),
    ] {
        let mut sim = Simulation::new(seed);
        let cfg = CoresConfig {
            cores: 4,
            steal,
            skew,
            seed,
            ..CoresConfig::default()
        };
        let sys = spawn_cores_kv(&mut sim, &cfg);
        sim.run_for(SimSpan::millis(1));
        sys.reset_measurements();
        sim.run_for(SimSpan::millis(2));

        let report = sys.skew_report(sim.now());
        let detector = AnomalyDetector::new(AnomalyConfig::default());
        let anomalies = detector.scan_cores(&report);
        let mut detected: Vec<AnomalyKind> = anomalies.iter().map(|a| a.kind).collect();
        detected.sort();
        detected.dedup();
        if steal {
            assert!(
                anomalies.is_empty(),
                "balanced reactor raised anomalies: {anomalies:?}"
            );
        } else {
            assert_eq!(
                detected,
                vec![AnomalyKind::CoreImbalance],
                "hot-partition EREW run must surface as exactly core_imbalance \
                 (skew report: {:?})",
                report.cores
            );
        }

        println!(
            "{},{},0,0,0.000,{},{},0",
            name,
            sys.stats.completed.get(),
            if steal { "none" } else { "core_imbalance" },
            detected_column(&detected),
        );
        export(&bench, name, &anomalies, sys.stats.completed.get());
    }

    let path = emit_bench_json("doctor").expect("write bench json");
    eprintln!("# bench registry exported to {}", path.display());
}
