#!/usr/bin/env bash
# Tier-1 verification: everything a change must pass before merging.
#
#   ./scripts/tier1.sh            # release build + tests + lint + debug job
#
# Jobs:
#   1. release build              (the artifact we benchmark)
#   2. full test suite            (unit + integration + doc tests)
#   3. clippy, warnings are errors
#   4. debug-assertions test job  (re-runs the suite with debug_assertions
#      on, exercising the SDC footprint-disjointness checks and every
#      debug-only invariant; `cargo test` default profile already enables
#      them — this job pins that explicitly so a profile tweak cannot
#      silently turn them off)
#   5. thread-matrix test job     (re-runs the determinism-sensitive crates
#      under RAYON_NUM_THREADS=2 and =4, so the global-pool default thread
#      count cannot mask a parallel neighbor-build or scatter divergence;
#      then smoke-runs the neighbor_build bench in release, whose setup
#      asserts that 1- and 2-worker list builds of the 35,152-atom
#      reference box give the same CSR)
#   6. metrics regression gate    (short metered mdrun, diffed against the
#      checked-in golden report; counters must match, timings may only
#      grow within a deliberately generous tolerance)
#   7. fused-path conformance     (the same short metered mdrun on the
#      reference and the fused EAM paths; every counter must match
#      *exactly* — the fused path may only change how fast the physics
#      runs, never what it does — plus the force-consistency suite under
#      RAYON_NUM_THREADS=2 and =4)
#   8. load-balance gate          (a balanced metered mdrun against the
#      plain run of the plan the search deterministically picks for the
#      gate case — sdc1d on the 9³ box, fewest barriers wins — with every
#      counter matching *exactly*: the balancer may only reorder and
#      re-split, never change the physics or the scatter bookkeeping;
#      plus the non-uniform-density conformance suite under
#      RAYON_NUM_THREADS=2 and =4)
#   9. mdserve chaos gate         (boots the job server, hammers it with a
#      concurrent client storm, then kill -9s it with jobs in flight and
#      restarts it on the same state directory: the journal replay must
#      re-queue the interrupted work and every job accepted before the
#      kill must complete from its checkpoint — zero accepted jobs lost)
#  10. task-graph gate            (the barrier-free scatter: conformance +
#      determinism battery under RAYON_NUM_THREADS=2 and =4, then an A/B
#      metered mdrun of taskgraph-vs-barriered SDC on the carved-void case
#      with every physics counter matching exactly — only the scheduling
#      regime, and therefore the scatter.* counters, may differ)
#  11. shard gate                 (the peer-mesh halo-exchange over binary
#      wire frames: the conformance battery, the wire-codec fuzz and the
#      SIGKILL/resume chaos test under RAYON_NUM_THREADS=2 and =4, then an
#      A/B metered mdrun of a 2-shard process-backend run against the
#      unsharded engine — the physics counters must match exactly;
#      slabbing may only change where the work runs)
#  12. SIMD gate                  (the lane-batched fused EAM kernels: the
#      conformance battery under RAYON_NUM_THREADS=2 and =4, the same
#      battery in release so the silent `UniformSpline::locate` clamp is
#      live, a MD_SIMD_SCALAR=1 leg so the runtime scalar fallback stays
#      conformant on any host, then an A/B metered mdrun of SIMD-vs-scalar
#      fused with every physics counter matching exactly — the batched
#      kernels may only change how fast the splines evaluate, never what
#      the physics does)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> [1/12] release build"
cargo build --release --workspace

echo "==> [2/12] test suite"
cargo test --workspace -q

echo "==> [3/12] clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> [4/12] debug-assertions test job"
RUSTFLAGS="-C debug-assertions=on" cargo test --workspace -q --profile dev

echo "==> [5/12] thread-matrix test job"
for t in 2 4; do
  echo "    RAYON_NUM_THREADS=$t"
  RAYON_NUM_THREADS="$t" cargo test -q -p md-neighbor -p sdc-core -p sdc-md
done
echo "    neighbor_build bench, one run each (release)"
cargo test --release -q -p sdc-bench --bench neighbor_build

echo "==> [6/12] metrics regression gate"
report="$(mktemp /tmp/tier1_metrics.XXXXXX.json)"
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --metrics-out "$report" > /dev/null
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  scripts/metrics_baseline.json "$report" --tol 1.10 --time-tol 50
rm -f "$report"

echo "==> [7/12] fused-path conformance gate"
ref="$(mktemp /tmp/tier1_ref.XXXXXX.json)"
fus="$(mktemp /tmp/tier1_fused.XXXXXX.json)"
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --no-fused --metrics-out "$ref" > /dev/null
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --metrics-out "$fus" > /dev/null
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  "$ref" "$fus" --tol 1.0 --time-tol 50
rm -f "$ref" "$fus"
for t in 2 4; do
  echo "    force-consistency suite, RAYON_NUM_THREADS=$t"
  RAYON_NUM_THREADS="$t" cargo test -q --test force_consistency
done

echo "==> [8/12] load-balance gate"
def="$(mktemp /tmp/tier1_default.XXXXXX.json)"
bal="$(mktemp /tmp/tier1_balanced.XXXXXX.json)"
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc1d --threads 2 --steps 20 --report 20 \
  --metrics-out "$def" > /dev/null
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc3d --threads 2 --steps 20 --report 20 \
  --balance --metrics-out "$bal" > /dev/null
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  "$def" "$bal" --tol 1.0 --time-tol 50
rm -f "$def" "$bal"
for t in 2 4; do
  echo "    load-balance suite, RAYON_NUM_THREADS=$t"
  RAYON_NUM_THREADS="$t" cargo test -q --test load_balance
done

echo "==> [9/12] mdserve chaos gate (client storm + kill-and-restart resume)"
sd="$(mktemp -d /tmp/tier1_mdserve.XXXXXX)"
# The server runs in its own process group (setsid): `kill -9` must reach
# the mdserve process itself, not just the timeout/cargo wrappers — SIGKILL
# is never forwarded, and an orphaned first server racing the restarted one
# on the same state directory makes resumed jobs fail intermittently.
setsid timeout 180 cargo run -q -p sdc-bench --release --bin mdserve -- \
  --dir "$sd/state" --port-file "$sd/port" --workers 2 > "$sd/serve1.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$sd/port" ] && break; sleep 0.1; done
[ -s "$sd/port" ] || { echo "mdserve never wrote its port file"; cat "$sd/serve1.log"; exit 1; }
echo "    client storm (4 clients x 3 jobs)"
timeout 120 cargo run -q -p sdc-bench --release --bin mdstorm -- \
  --port-file "$sd/port" --clients 4 --jobs 3 --steps 80
echo "    kill -9 with jobs in flight, restart, resume"
timeout 60 cargo run -q -p sdc-bench --release --bin mdstorm -- \
  --port-file "$sd/port" --clients 2 --jobs 2 --steps 2000 --no-await
kill -9 -- "-$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
rm -f "$sd/port"
timeout 180 cargo run -q -p sdc-bench --release --bin mdserve -- \
  --dir "$sd/state" --port-file "$sd/port" --workers 2 > "$sd/serve2.log" 2>&1 &
serve2_pid=$!
for _ in $(seq 1 100); do [ -s "$sd/port" ] && break; sleep 0.1; done
[ -s "$sd/port" ] || { echo "restarted mdserve never wrote its port file"; cat "$sd/serve2.log"; exit 1; }
# Every job accepted before the kill must complete after the restart.
timeout 120 cargo run -q -p sdc-bench --release --bin mdstorm -- \
  --port-file "$sd/port" --await-only --shutdown drain
wait "$serve2_pid"
grep -q "re-queued" "$sd/serve2.log" || { echo "restart did not replay the journal"; cat "$sd/serve2.log"; exit 1; }
rm -rf "$sd"

echo "==> [10/12] task-graph gate (conformance + determinism + A/B vs barriered SDC)"
for t in 2 4; do
  echo "    taskgraph battery, RAYON_NUM_THREADS=$t"
  RAYON_NUM_THREADS="$t" cargo test -q --test taskgraph_conformance
done
sdc="$(mktemp /tmp/tier1_sdc.XXXXXX.json)"
tg="$(mktemp /tmp/tier1_taskgraph.XXXXXX.json)"
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --void --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --metrics-out "$sdc" > /dev/null
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --void --strategy sdc2d --taskgraph --threads 2 --steps 20 --report 20 \
  --metrics-out "$tg" > /dev/null
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  "$sdc" "$tg" --ab --tol 1.0 --time-tol 50
rm -f "$sdc" "$tg"

echo "==> [11/12] shard gate (conformance battery + codec fuzz + chaos + A/B leg)"
# The conformance battery, the wire-codec fuzz and the SIGKILL/resume
# chaos test all run the one binary wire codec.
for t in 2 4; do
  echo "    shard battery, RAYON_NUM_THREADS=$t"
  RAYON_NUM_THREADS="$t" cargo test -q --test shard_conformance
  RAYON_NUM_THREADS="$t" cargo test -q -p md-shard --test codec_fuzz --test process_chaos
done
# The process-backend smoke: mdrun needs the worker binary next to it.
cargo build -q --release -p md-shard
flat="$(mktemp /tmp/tier1_flat.XXXXXX.json)"
shrd="$(mktemp /tmp/tier1_shard.XXXXXX.json)"
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --metrics-out "$flat" > /dev/null
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --shards 2 --shard-backend process --metrics-out "$shrd" > /dev/null
# Counters must match exactly; the time tolerance is deliberately huge —
# every step crosses the peer-mesh wire, so sharded step *time* is a
# different regime, not a regression signal.
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  "$flat" "$shrd" --ab --tol 1.0 --time-tol 500
rm -f "$flat" "$shrd"

echo "==> [12/12] SIMD gate (conformance battery + scalar-fallback leg + A/B vs scalar fused)"
for t in 2 4; do
  echo "    SIMD battery, RAYON_NUM_THREADS=$t"
  RAYON_NUM_THREADS="$t" cargo test -q --test simd_conformance
done
echo "    release-profile battery (silent spline clamp live)"
cargo test -q --release --test simd_conformance
echo "    runtime scalar-fallback leg (MD_SIMD_SCALAR=1)"
MD_SIMD_SCALAR=1 cargo test -q --test simd_conformance
scl="$(mktemp /tmp/tier1_scalar.XXXXXX.json)"
smd="$(mktemp /tmp/tier1_simd.XXXXXX.json)"
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --no-simd --metrics-out "$scl" > /dev/null
cargo run -q -p sdc-bench --release --bin mdrun -- \
  --cells 9 --strategy sdc2d --threads 2 --steps 20 --report 20 \
  --metrics-out "$smd" > /dev/null
cargo run -q -p sdc-bench --release --bin metrics_diff -- \
  "$scl" "$smd" --ab --tol 1.0 --time-tol 50
rm -f "$scl" "$smd"

echo "tier-1: all green"
