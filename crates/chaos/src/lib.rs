//! Deterministic fault injection for the RFP simulator.
//!
//! The paper evaluates RFP on a healthy cluster; this crate supplies the
//! adversarial half of the story. A [`FaultPlan`] schedules faults at
//! simulated instants — NIC loss bursts, fabric-wide link degradation,
//! straggler cores, QP error transitions, and server crashes with warm
//! or cold restarts — and [`install`] (or the bundled
//! [`spawn_chaos_kv`] rig) delivers them into a running simulation.
//! Because the simulator is single-threaded over a virtual clock, every
//! run is exactly reproducible from `(plan, seed)`: a recovery bug found
//! under chaos replays under a debugger, fault for fault.
//!
//! Two rigs carry the invariants, both built on one [`RigSinks`]
//! (cluster, registry, trace, spans, flight recorder, health hub, the
//! client-link step and the injector install):
//!
//! * [`spawn_chaos_kv`] drives a Jakiro-style KV store through
//!   [`RfpClient::call_with_recovery`](rfp_core::RfpClient::call_with_recovery)
//!   and checks the recovery invariants online (no acked write lost, no
//!   stale data after a cold wipe) — see `cargo run -p rfp-bench --bin
//!   chaos` for the scenario sweep;
//! * [`spawn_replicated_kv`] runs a primary/backup
//!   [`ReplicaPair`](rfp_kvstore::replica::ReplicaPair) behind
//!   [`ReplicaClient`](rfp_core::ReplicaClient) routers and records a
//!   checkable operation history. Its two presets are the two studies:
//!   [`ReplicatedConfig::failover`] (roaming reads, fail-stop faults,
//!   the `failover` bench) and [`ReplicatedConfig::gray`] (own-key
//!   reads, fail-slow faults, the `grayfail` bench). Both presets
//!   recover a restarted backup's client links and replication link;
//!   before the two rigs merged, the failover rig recovered only a
//!   restarted primary.

mod harness;
mod inject;
mod plan;
mod replicated;

pub use harness::{spawn_chaos_kv, ChaosConfig, ChaosKv, ChaosState, RigSinks};
pub use inject::{install, InjectorSinks, Restart, RestartHook};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use replicated::{
    spawn_replicated_kv, ReadScope, ReplicatedConfig, ReplicatedKv, ReplicatedState, PROMOTED_EPOCH,
};
