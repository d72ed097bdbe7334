#!/usr/bin/env bash
# Full local CI: build, tests, lints, formatting, fixed-seed smokes.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# Every crate's tests, benches and binaries, and the whole workspace
# suite: the client call-engine oracle, the reactor and replicated-rig
# identity proptests, and the executor's own suite included.
cargo build --release --workspace --all-targets
cargo test --workspace --release -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# smoke <bin>: run a smoke binary twice at seed 42. Each binary asserts
# its own claims and exits non-zero on a violation; here its CSV must
# also be byte-identical run to run. A binary that exports
# BENCH_<bin>.json must export the same bytes both times, and — when
# that file is committed — exactly the committed bytes, so an intended
# change regenerates and commits the file.
smoke() {
  local bin=$1 json=BENCH_$1.json
  rm -f "/tmp/${bin}_a.json"
  cargo run -q --release -p rfp-bench --bin "$bin" 42 > "/tmp/${bin}_a.csv"
  if [ -f "$json" ]; then mv "$json" "/tmp/${bin}_a.json"; fi
  cargo run -q --release -p rfp-bench --bin "$bin" 42 > "/tmp/${bin}_b.csv"
  cmp "/tmp/${bin}_a.csv" "/tmp/${bin}_b.csv"
  if [ -f "/tmp/${bin}_a.json" ]; then
    cmp "/tmp/${bin}_a.json" "$json"
    if git cat-file -e "HEAD:$json" 2>/dev/null; then
      cmp <(git show "HEAD:$json") "$json"
    fi
  fi
}

# chaos: every fault scenario holds the safety invariants (zero lost
#   acked writes, zero stale reads).
# overload: the shed cost (2 in-bound, 0 out-bound NIC ops per shed)
#   and the goodput plateau (controlled goodput at 4x saturation >= 70%
#   of peak, uncontrolled below it).
# integrity: zero corrupt payloads reach a caller across the whole
#   fault-rate sweep, and the fault knobs actually fire.
# pipeline: the window-scaling bars (>= 2x single-client 32 B
#   throughput at W >= 8, monotone doorbell-batched issue-cost decay,
#   adaptive idle backoff free at saturation).
# doctor: the fault-class detection matrix (every injected class
#   surfaces as its signature anomaly with an intact cause chain; the
#   clean baselines raise nothing).
# fleet: flat server memory/QP footprint and scan cost per request
#   across 10^2..10^5 logical clients, a flat goodput plateau, lease
#   churn firing, and >= 80% cold-tenant goodput under a hot tenant.
# failover: sync mode loses no acked write, reads never run backwards,
#   histories linearize, failover time stays inside budget, and the
#   sync replication tax on the 32 B GET-heavy bar stays under 5%.
# grayfail: each fail-slow fault inflates the unmitigated read p99 past
#   3x clean while scored routing and hedging stay within it, no acked
#   write is lost, histories linearize, hedges never double-apply a
#   write, and retry amplification stays under the budget bound.
# cores: uniform 4-core throughput >= 3x one core, the skewed worst
#   case within 2.5x of uniform with stealing and visibly collapsed
#   without, and same-seed registry byte-identity.
for bin in chaos overload integrity pipeline doctor fleet failover grayfail cores; do
  smoke "$bin"
done
