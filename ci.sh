#!/usr/bin/env bash
# CI entry point: build, test, lint and document the whole workspace.
# Mirrors the tier-1 verify (`cargo build --release && cargo test -q`) and
# adds clippy (warnings are errors) and a warning-free doc build.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release
# The end-to-end benchmark is a workspace of its own that links the
# library crates by path, so a public-API change breaks it without touching
# the root build. Build it here, reusing the root target directory.
CARGO_TARGET_DIR="$PWD/target" cargo build -q --release --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> engine property + integration + golden tests (release)"
# The workspace test run above already includes these in debug mode; the
# release pass exercises the same code the perf suite measures (fast-math-free
# release codegen) on the suites that pin the engine's exact equivalence,
# including the pin that both sparse tiers build the same rows.
cargo test -q --release -p oblisched_sinr --test properties
cargo test -q --release -p oblisched-suite --test scheduler_families --test golden_schedules \
  --test probe_equivalence
# Golden snapshot of the sparse-dynamic E10 rows (release-only test): the
# deterministic outcome of the 10k/50k churn replays on the churn-capable
# sparse backend, including the n=50k under-64-MiB acceptance assert.
cargo test -q --release -p oblisched-suite --test golden_sparse_churn

echo "==> dynamic churn acceptance (release)"
# The full-size acceptance configuration (>= 2000 events around >= 1000 live
# requests, every intermediate state validated against the naive evaluator)
# only runs in release; the debug workspace pass above covers the scaled-down
# variant of the same test.
cargo test -q --release -p oblisched-suite --test dynamic_churn

echo "==> durable recovery acceptance (release)"
# The crash-point harness at acceptance scale: a >= 500-event on-disk WAL
# truncated at every record boundary and every torn-line byte offset, with
# recovery required to be bit-for-bit identical to the pre-crash scheduler
# and certified through the naive-evaluator validate() path. The debug
# workspace pass above covers the scaled-down variant.
cargo test -q --release -p oblisched-suite --test durable_recovery

echo "==> sparse dynamic certification + churn acceptance (release)"
# The interleaving proptest — the sparse-backed DynamicScheduler never
# accepts a placement the naive evaluator rejects, at *any* intermediate
# state, across assignments × variants — plus the
# large-universe acceptance replay on the facade-selected sparse backend.
# SPARSE_CHURN_SMOKE=1 (the default here) shrinks the acceptance universe
# to 4k — still past the dense budget, so the sparse tier is exercised —
# keeping the pipeline fast; the full 10k/50k replays run in the
# golden_sparse_churn stage above.
SPARSE_CHURN_SMOKE="${SPARSE_CHURN_SMOKE:-1}" cargo test -q --release -p oblisched-suite --test sparse_dynamic

echo "==> server daemon smoke (wire golden + concurrent load + clean shutdown)"
# End-to-end over a real socket: start the daemon on an ephemeral port with a
# throwaway data dir and --no-timing (wall_ms pinned to 0 so the transcript
# is byte-deterministic), replay the committed wire transcript, and diff the
# responses against the golden file — GOLDEN_UPDATE=1 regenerates, matching
# the other golden stages. The transcript includes the malformed-JSON
# negative control: the daemon must answer it with a typed bad_request error
# and keep the connection alive through the final ping.
# The root build above only covers the umbrella crate; make sure the daemon
# and load-generator binaries exist before launching them directly (running
# the daemon through `cargo run` would hold no lock either, but direct
# binaries keep the pid we background and wait on the daemon's own).
cargo build -q --release -p oblisched_server --bins
server_dir="$(mktemp -d)"
server_log="$(mktemp)"
./target/release/oblisched-server \
  --addr 127.0.0.1:0 --data-dir "$server_dir" --no-timing > "$server_log" &
server_pid=$!
server_addr=""
for _ in $(seq 1 100); do
  server_addr="$(sed -n 's/.*"listening":{"addr":"\([^"]*\)".*/\1/p' "$server_log")"
  [ -n "$server_addr" ] && break
  sleep 0.1
done
if [ -z "$server_addr" ]; then
  echo "daemon never reported a listening address" >&2
  kill "$server_pid" 2>/dev/null || true
  exit 1
fi
wire_out="$(mktemp)"
./target/release/oblisched-load --addr "$server_addr" \
  --replay examples/server/smoke.jsonl > "$wire_out"
if [ "${GOLDEN_UPDATE:-}" = "1" ]; then
  cp "$wire_out" examples/server/smoke.golden.jsonl
  echo "server wire golden rewritten at examples/server/smoke.golden.jsonl"
else
  diff -u examples/server/smoke.golden.jsonl "$wire_out"
fi
grep -q '"bad_request"' "$wire_out"   # the malformed line got a typed error...
tail -1 "$wire_out" | grep -q '"pong"'  # ...and the connection survived it.
rm -f "$wire_out"
# Short load run against the same daemon: 8 concurrent connections each
# churning their own durable session; the summary must report throughput and
# client-observed p50/p95/p99 per verb.
load_out="$(mktemp)"
./target/release/oblisched-load --addr "$server_addr" \
  --connections 8 --universe 150 --live 50 --events 120 > "$load_out"
grep -q '^8 connections' "$load_out"
grep -q 'p50=' "$load_out"
grep -q 'p99=' "$load_out"
rm -f "$load_out"
# Graceful stop: the shutdown verb must be acknowledged and the daemon must
# checkpoint its sessions and exit 0 (set -e fails the stage otherwise).
./target/release/oblisched-load --addr "$server_addr" --stop
wait "$server_pid"
rm -rf "$server_dir" "$server_log"

echo "==> end-to-end benchmark as a correctness check (session_small, 1 s)"
# Drives the real daemon through every session verb and through solves,
# checks each answer against an in-process replay, SIGKILLs and restarts
# the daemon, and runs a negative control; only its verdict is read here,
# not its timings. Builds into the root target directory.
CARGO_TARGET_DIR="$PWD/target" python3 perfbench/run.py --workload session_small --seed 1 \
  --seconds 1 --trace 0 | tail -1 | grep -q '"correct": true'

echo "==> sparse-tier tail recovery at the served profile (session_large, 1 s, traced)"
# session_large runs its sessions on the sparse tier the daemon serves past
# the dense budget. Its traced run also recovers a copy of one durable
# session taken mid-script, with a log tail past the snapshot, onto a fresh
# backend; that copy must come back exact. Only the verdict and that count
# are read here, not timings.
CARGO_TARGET_DIR="$PWD/target" python3 perfbench/run.py --workload session_large --seed 7 \
  --seconds 1 --trace 1 | tail -1 | python3 -c '
import json, sys
result = json.load(sys.stdin)
failures = result["metrics"]["durability.tail_recover_failures"]["value"]
correct = result["correct"]
if correct is not True or failures != 0:
    sys.exit(f"session_large: correct={correct}, tail_recover_failures={failures}")
'

echo "==> experiment E10 (churn: incremental vs full reschedule)"
# E10 validates the final dynamic state against the naive evaluator and
# asserts incremental maintenance is >= 3x faster than full reschedules on
# every dense-tier row; running it here keeps the experiment harness (and
# the speedup claim it documents) green. Its large-tier rows
# replay the 10k/50k churn families on the sparse session backend and
# assert the 64 MiB engine-budget bound.
cargo run -q -p oblisched_bench --bin experiments --release -- --exp e10

echo "==> experiment E11 (backend tiers: dense vs sparse vs parallel-sparse)"
# E11 asserts zero non-conservative sparse verdicts against the naive
# evaluator, thread-count determinism of the parallel scheduler, and its
# tier floors (parallel-sparse at n=10k faster than dense at n=2k and >= 2x
# faster than serial sparse on the same backend), and reports the tier
# wall times side by side.
cargo run -q -p oblisched_bench --bin experiments --release -- --exp e11

echo "==> perf regression gate (smoke suite vs committed BENCH baseline)"
# Times the pinned hot-path suite (smoke shape) and compares medians and
# schedule fingerprints against the newest committed BENCH_<date>.json:
# a median beyond baseline × 1.25 + 20 ms slack, or ANY fingerprint
# change, fails the build. Regenerate the baseline after an *intentional*
# perf or behaviour change with
#   cargo run -p oblisched_bench --bin perf --release -- \
#     --date "$(date +%F)" --out "BENCH_$(date +%F).json"
# (writes both the full and smoke suite shapes into one report).
perf_baseline="$(ls BENCH_*.json | LC_ALL=C sort | tail -1)"
PERF_SMOKE=1 cargo run -q -p oblisched_bench --bin perf --release -- --check "$perf_baseline"

echo "==> perf gate negative control (salted fingerprints must trip the gate)"
# PERF_FINGERPRINT_SALT perturbs every fingerprint without slowing anything
# down; if the salted run still passes, the gate has stopped checking
# schedule identity and CI must fail.
if PERF_SMOKE=1 PERF_FINGERPRINT_SALT=1 PERF_REPEATS=1 \
    cargo run -q -p oblisched_bench --bin perf --release -- --check "$perf_baseline" \
    > /dev/null 2>&1; then
  echo "perf gate negative control failed: salted fingerprints passed" >&2
  exit 1
fi

echo "==> oblint (repo-specific static analysis, baseline-ratcheted)"
# Token-level lints for the disciplines the determinism guarantees rest on
# (total float orderings, hash-free iteration, no wall clocks in core,
# checked casts and SAFETY-inflated pads in the sparse engine). Findings
# not in the committed oblint.baseline.json fail the build; fixing a
# baselined finding also fails until the baseline is ratcheted down with
# OBLINT_UPDATE=1, matching the GOLDEN_UPDATE convention.
if [ "${OBLINT_UPDATE:-}" = "1" ]; then
  cargo run -q -p oblisched_analysis --bin oblint -- --update-baseline
else
  cargo run -q -p oblisched_analysis --bin oblint
fi

echo "==> oblint self-test (a deliberate violation must fail)"
# Negative control: synthesize a file with a known violation and assert the
# tool actually rejects it, so a lint that silently stops firing cannot
# pass CI.
oblint_scratch="$(mktemp -d)"
cat > "$oblint_scratch/bad.rs" <<'FIXTURE'
pub fn bad_sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}
FIXTURE
if cargo run -q -p oblisched_analysis --bin oblint -- --check "$oblint_scratch/bad.rs" > /dev/null; then
  echo "oblint failed to flag a deliberate float-total-order violation" >&2
  rm -rf "$oblint_scratch"
  exit 1
fi
rm -rf "$oblint_scratch"

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "CI OK"
