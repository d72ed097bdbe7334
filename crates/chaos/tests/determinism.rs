//! Zero-cost-when-idle: an injector with nothing to do must be
//! *indistinguishable* — not just statistically, byte for byte.
//!
//! Property (ISSUE satellite): a run with an empty or never-firing
//! `FaultPlan` produces metrics CSV and trace output identical to a run
//! with no injector installed at all. This pins the design rule that
//! fault hooks are plain state reads and every `fault.*`/`recovery.*`
//! instrument is created lazily at event-fire time.

use proptest::prelude::*;

use rfp_chaos::{spawn_chaos_kv, ChaosConfig, FaultPlan};
use rfp_simnet::{SimSpan, SimTime, Simulation};

/// Runs the rig for `window` and returns `(metrics CSV, trace dump)`.
fn run_fingerprint(seed: u64, window: SimSpan, plan: Option<&FaultPlan>) -> (Vec<u8>, Vec<u8>) {
    let mut sim = Simulation::new(seed);
    let cfg = ChaosConfig {
        client_machines: 2,
        server_threads: 1,
        keys_per_client: 4,
        seed,
        ..ChaosConfig::default()
    };
    let rig = spawn_chaos_kv(&mut sim, &cfg, plan);
    sim.run_for(window);
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
    #[test]
    fn empty_plan_is_byte_identical_to_no_injector(seed in 0u64..1_000) {
        let window = SimSpan::micros(400);
        let bare = run_fingerprint(seed, window, None);
        let idle = run_fingerprint(seed, window, Some(&FaultPlan::new(seed)));
        prop_assert_eq!(&bare.0, &idle.0, "metrics CSV diverged");
        prop_assert_eq!(&bare.1, &idle.1, "trace diverged");
    }

    #[test]
    fn never_firing_plan_is_byte_identical_to_no_injector(
        seed in 0u64..1_000,
        // Events strictly beyond the run window: scheduled, spawned,
        // never fired.
        offset_us in 1_000u64..50_000,
    ) {
        let window = SimSpan::micros(400);
        let at = SimTime::from_nanos(window.as_nanos() + offset_us * 1_000);
        let plan = FaultPlan::new(seed)
            .loss_burst(at, SimSpan::micros(50), 1, 0.3)
            .link_degrade(at, SimSpan::micros(50), 4.0)
            .straggler(at, SimSpan::micros(50), 0, 3.0)
            .qp_error(at, 0)
            .crash(at, SimSpan::micros(100), 0, false)
            .partition(at, SimSpan::micros(50), 1, 0);
        let bare = run_fingerprint(seed, window, None);
        let armed = run_fingerprint(seed, window, Some(&plan));
        prop_assert_eq!(&bare.0, &armed.0, "metrics CSV diverged");
        prop_assert_eq!(&bare.1, &armed.1, "trace diverged");
    }
}
