#!/usr/bin/env bash
# Full local CI: build, tests, lints, formatting.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Every crate's tests, benches and binaries, and the whole workspace
# suite (the client call-engine oracle and the reactor identity
# proptests included).
cargo build --release --workspace --all-targets
cargo test --workspace --release -q
# The reactor identity oracle (idle chains replay the frozen legacy
# serve loops byte for byte) and the executor's own suite.
cargo test --release -q -p rfp-core --test reactor_identity
cargo test --release -q -p rfp-simnet
cargo clippy -- -D warnings
cargo clippy -p rfp-chaos -- -D warnings
cargo clippy -p rfp-core -p rfp-kvstore -p rfp-bench -p rfp-rnic -- -D warnings
cargo clippy -p rfp-paradigms -p rfp-workload -p rfp-simnet -- -D warnings
cargo fmt --check

# Chaos smoke: every fault scenario under a fixed seed must hold the
# safety invariants (the binary asserts zero lost acked writes and zero
# stale reads) and be deterministic run-to-run.
cargo run -q --release -p rfp-bench --bin chaos 42 > /tmp/chaos_a.csv
cargo run -q --release -p rfp-bench --bin chaos 42 > /tmp/chaos_b.csv
cmp /tmp/chaos_a.csv /tmp/chaos_b.csv

# Overload smoke: the binary itself asserts the shed cost (2 in-bound,
# 0 out-bound NIC ops per shed) and the goodput plateau (controlled
# goodput at 4x saturation >= 70% of peak, uncontrolled below it);
# here we additionally pin run-to-run determinism under a fixed seed.
cargo run -q --release -p rfp-bench --bin overload 42 > /tmp/overload_a.csv
cargo run -q --release -p rfp-bench --bin overload 42 > /tmp/overload_b.csv
cmp /tmp/overload_a.csv /tmp/overload_b.csv

# Integrity smoke: the binary asserts zero corrupt payloads ever reach
# a caller across the whole fault-rate sweep (and that the fault knobs
# actually fire); here we additionally pin run-to-run determinism of
# the sweep under a fixed seed.
cargo run -q --release -p rfp-bench --bin integrity 42 > /tmp/integrity_a.csv
cargo run -q --release -p rfp-bench --bin integrity 42 > /tmp/integrity_b.csv
cmp /tmp/integrity_a.csv /tmp/integrity_b.csv

# Pipeline smoke: the binary asserts the window-scaling bars (>= 2x
# single-client 32 B throughput at W >= 8, monotone doorbell-batched
# issue-cost decay, adaptive idle backoff free at saturation); here we
# additionally pin run-to-run determinism under a fixed seed and that
# the exported registry keeps the committed BENCH_pipeline.json shape
# (same metric names; values may move with the model).
cargo run -q --release -p rfp-bench --bin pipeline 42 > /tmp/pipeline_a.csv
mv BENCH_pipeline.json /tmp/pipeline_a.json
cargo run -q --release -p rfp-bench --bin pipeline 42 > /tmp/pipeline_b.csv
cmp /tmp/pipeline_a.csv /tmp/pipeline_b.csv
cmp /tmp/pipeline_a.json BENCH_pipeline.json
if git cat-file -e HEAD:BENCH_pipeline.json 2>/dev/null; then
  diff <(grep -o '"[^"]*":' /tmp/pipeline_a.json | sort) \
       <(git show HEAD:BENCH_pipeline.json | grep -o '"[^"]*":' | sort)
  # Runs are deterministic: the regenerated file is the committed one,
  # byte for byte.
  cmp <(git show HEAD:BENCH_pipeline.json) BENCH_pipeline.json
fi

# Doctor smoke: the binary asserts the full fault-class detection
# matrix (every injected class surfaces as its signature anomaly with
# an intact cause chain, and the clean baseline raises nothing); here
# we additionally pin run-to-run determinism under a fixed seed and
# that the exported registry keeps the committed BENCH_doctor.json
# shape (same matrix cells; counts may move with the model).
cargo run -q --release -p rfp-bench --bin doctor 42 > /tmp/doctor_a.csv
mv BENCH_doctor.json /tmp/doctor_a.json
cargo run -q --release -p rfp-bench --bin doctor 42 > /tmp/doctor_b.csv
cmp /tmp/doctor_a.csv /tmp/doctor_b.csv
cmp /tmp/doctor_a.json BENCH_doctor.json
if git cat-file -e HEAD:BENCH_doctor.json 2>/dev/null; then
  diff <(grep -o '"[^"]*":' /tmp/doctor_a.json | sort) \
       <(git show HEAD:BENCH_doctor.json | grep -o '"[^"]*":' | sort)
  # Runs are deterministic: the regenerated file is the committed one,
  # byte for byte.
  cmp <(git show HEAD:BENCH_doctor.json) BENCH_doctor.json
fi

# Fleet smoke: the binary asserts the fleet-scaling claims (flat server
# memory/QP footprint and flat scan cost per request across 10^2..10^5
# logical clients, a flat goodput plateau, lease churn actually firing,
# and >= 80% cold-tenant goodput retention under a hot tenant); here we
# additionally pin run-to-run determinism under a fixed seed and that
# the exported registry keeps the committed BENCH_fleet.json shape
# (same metric names; values may move with the model).
cargo run -q --release -p rfp-bench --bin fleet 42 > /tmp/fleet_a.csv
mv BENCH_fleet.json /tmp/fleet_a.json
cargo run -q --release -p rfp-bench --bin fleet 42 > /tmp/fleet_b.csv
cmp /tmp/fleet_a.csv /tmp/fleet_b.csv
cmp /tmp/fleet_a.json BENCH_fleet.json
if git cat-file -e HEAD:BENCH_fleet.json 2>/dev/null; then
  diff <(grep -o '"[^"]*":' /tmp/fleet_a.json | sort) \
       <(git show HEAD:BENCH_fleet.json | grep -o '"[^"]*":' | sort)
  # Runs are deterministic: the regenerated file is the committed one,
  # byte for byte.
  cmp <(git show HEAD:BENCH_fleet.json) BENCH_fleet.json
fi

# Failover smoke: the binary asserts the replication/failover claims
# (sync mode loses no acked write, reads never run backwards, every
# surviving history passes the linearizability checker, failover time
# stays inside budget, and the sync replication tax on the 32 B
# GET-heavy bar stays under 5%); here we additionally pin run-to-run
# determinism under a fixed seed and that the exported registry keeps
# the committed BENCH_failover.json shape (same metric names; values
# may move with the model).
cargo run -q --release -p rfp-bench --bin failover 42 > /tmp/failover_a.csv
mv BENCH_failover.json /tmp/failover_a.json
cargo run -q --release -p rfp-bench --bin failover 42 > /tmp/failover_b.csv
cmp /tmp/failover_a.csv /tmp/failover_b.csv
cmp /tmp/failover_a.json BENCH_failover.json
if git cat-file -e HEAD:BENCH_failover.json 2>/dev/null; then
  diff <(grep -o '"[^"]*":' /tmp/failover_a.json | sort) \
       <(git show HEAD:BENCH_failover.json | grep -o '"[^"]*":' | sort)
  # Runs are deterministic: the regenerated file is the committed one,
  # byte for byte.
  cmp <(git show HEAD:BENCH_failover.json) BENCH_failover.json
fi

# Gray-failure smoke: the binary asserts the resilience claims (each
# fail-slow fault inflates the unmitigated read p99 past 3x clean
# while scored routing and hedging stay within it, no acked write is
# lost, histories linearize, hedges never double-apply a write, and
# retry amplification stays under the budget bound); here we
# additionally pin run-to-run determinism under a fixed seed and that
# the exported registry keeps the committed BENCH_grayfail.json shape
# (same metric names; values may move with the model).
cargo run -q --release -p rfp-bench --bin grayfail 42 > /tmp/grayfail_a.csv
mv BENCH_grayfail.json /tmp/grayfail_a.json
cargo run -q --release -p rfp-bench --bin grayfail 42 > /tmp/grayfail_b.csv
cmp /tmp/grayfail_a.csv /tmp/grayfail_b.csv
cmp /tmp/grayfail_a.json BENCH_grayfail.json
if git cat-file -e HEAD:BENCH_grayfail.json 2>/dev/null; then
  diff <(grep -o '"[^"]*":' /tmp/grayfail_a.json | sort) \
       <(git show HEAD:BENCH_grayfail.json | grep -o '"[^"]*":' | sort)
  # Runs are deterministic: the regenerated file is the committed one,
  # byte for byte.
  cmp <(git show HEAD:BENCH_grayfail.json) BENCH_grayfail.json
fi

# Cores smoke: the binary asserts the core-scaling claims (uniform
# 4-core throughput >= 3x one core, the skewed worst case within 2.5x
# of uniform with stealing and visibly collapsed/imbalanced without,
# and same-seed registry byte-identity); here we additionally pin
# run-to-run determinism under a fixed seed and that the exported
# registry keeps the committed BENCH_cores.json shape (same metric
# names; values may move with the model).
cargo run -q --release -p rfp-bench --bin cores 42 > /tmp/cores_a.csv
mv BENCH_cores.json /tmp/cores_a.json
cargo run -q --release -p rfp-bench --bin cores 42 > /tmp/cores_b.csv
cmp /tmp/cores_a.csv /tmp/cores_b.csv
cmp /tmp/cores_a.json BENCH_cores.json
if git cat-file -e HEAD:BENCH_cores.json 2>/dev/null; then
  diff <(grep -o '"[^"]*":' /tmp/cores_a.json | sort) \
       <(git show HEAD:BENCH_cores.json | grep -o '"[^"]*":' | sort)
  # Runs are deterministic: the regenerated file is the committed one,
  # byte for byte.
  cmp <(git show HEAD:BENCH_cores.json) BENCH_cores.json
fi
