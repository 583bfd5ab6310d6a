#!/usr/bin/env bash
# Full local gate, identical to CI: release build, tests, strict clippy.
# The workspace has no external dependencies, so everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test -q --offline (LITHO_SIMD=scalar)"
# Both kernel levels: the scalar pass proves the portable reference paths,
# the auto pass exercises whatever SIMD the host dispatches to.
LITHO_SIMD=scalar cargo test --workspace -q --offline

echo "==> cargo test -q --offline (LITHO_SIMD=auto)"
LITHO_SIMD=auto cargo test --workspace -q --offline

echo "==> benchmark self-tests"
# The perfbench package (its own workspace) checks every workload at a
# tiny config, including the traced predict replica's bit-identity
# against predict_batch, so a kernel change cannot silently break the
# measuring harness.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> run ledger + metric regression gate"
cli=target/release/lithogan_cli
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
"$cli" --runs-root "$work/runs" generate --clips 12 --size 32 --out "$work/data.lgd"
"$cli" --runs-root "$work/runs" train --data "$work/data.lgd" --epochs 2 --seed 1 --health --out "$work/model.lgm"
run=$(ls "$work/runs" | grep '^train-')
"$cli" --runs-root "$work/runs" report "$run"
test -s "$work/runs/$run/dashboard.svg"
"$cli" --runs-root "$work/runs" compare "$run" --gate ci/baseline.json

echo "==> compute-plane profile"
# grep without -q reads to EOF: -q exits at first match and the CLI
# panics on EPIPE mid-table.
"$cli" --runs-root "$work/runs" profile "$run" --top 10 | grep "self-time attribution" > /dev/null
test -s "$work/runs/$run/flamegraph.svg"
test -s "$work/runs/$run/flamegraph.folded"
# A malformed SVG (truncated render, unbalanced document) fails here.
head -c 64 "$work/runs/$run/flamegraph.svg" | grep -q '^<svg '
tail -c 16 "$work/runs/$run/flamegraph.svg" | grep -q '</svg>'

echo "==> model-health gate"
test -s "$work/runs/$run/health.jsonl"
"$cli" --runs-root "$work/runs" health "$run" --fail-on nan,dead-layer
test -s "$work/runs/$run/health.svg"

echo "==> fleet index + trend gate"
"$cli" --runs-root "$work/runs" train --data "$work/data.lgd" --epochs 2 --seed 2 --out "$work/model2.lgm"
"$cli" --runs-root "$work/runs" reindex
"$cli" --runs-root "$work/runs" runs ls
"$cli" --runs-root "$work/runs" runs trend ede_mean_nm --gate
test -s "$work/runs/trend.svg"

echo "==> eval-forensics gate"
# Committed fixture fleets: clean runs share per-clip EDE, the regressed
# tip re-evaluates the same clip fingerprints 60% worse.
fix=crates/core/tests/fixtures/fleet
mkdir -p "$work/forensics"
cp -r "$fix/clean/." "$work/forensics/"
cp -r "$fix/regressed/." "$work/forensics/"
"$cli" --runs-root "$work/forensics" reindex
"$cli" --runs-root "$work/forensics" triage train-1700000600-6 --worst 2 | grep "worst 2 of 3 samples" > /dev/null
# A malformed gallery (truncated render, unbalanced document) fails here.
head -c 64 "$work/forensics/train-1700000600-6/triage.svg" | grep -q '^<svg '
tail -c 16 "$work/forensics/train-1700000600-6/triage.svg" | grep -q '</svg>'
"$cli" --runs-root "$work/forensics" runs trend ede_mean_nm --slice family=chain1d > /dev/null
"$cli" --runs-root "$work/forensics" runs diff-eval train-1700000100-1 train-1700000400-4 --gate
if "$cli" --runs-root "$work/forensics" runs diff-eval train-1700000400-4 train-1700000600-6 --gate; then
  echo "diff-eval --gate unexpectedly passed on the regressed pair"; exit 1
fi

echo "==> dash smoke"
# Ephemeral port, announced on stdout as "dash listening on http://ADDR".
"$cli" --runs-root "$work/runs" dash --addr 127.0.0.1:0 > "$work/dash.out" &
dash_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's|.*http://\([^ ]*\).*|\1|p' "$work/dash.out")
  [ -n "$addr" ] && break
  kill -0 "$dash_pid" 2>/dev/null || { cat "$work/dash.out"; exit 1; }
  sleep 0.1
done
test -n "$addr"
# Plain grep (no -q) so curl never sees a closed pipe mid-response.
curl -fsS "http://$addr/metrics" | grep '^# TYPE lithogan_runs_total gauge' > /dev/null
curl -fsS "http://$addr/metrics" | grep 'lithogan_runs_total{status="ok"}' > /dev/null
curl -fsS "http://$addr/api/runs" | grep '"run_id"' > /dev/null
curl -fsS "http://$addr/runs/$run/dashboard.svg" -o "$work/dash.svg"
head -c 16 "$work/dash.svg" | grep -q '^<svg'
curl -fsS -X POST "http://$addr/shutdown" | grep 'shutting down' > /dev/null
wait "$dash_pid"
grep -q '"command":"dash"' "$work/runs/index.jsonl"

echo "==> alerts + incident-forensics gate"
# A poisoned run must die, leave a complete incident bundle, and trip
# the health alert on every surface; the alerts gate must go red.
if "$cli" --runs-root "$work/runs" train --data "$work/data.lgd" --epochs 2 --seed 3 \
    --poison-nan-at-epoch 0 --abort-on nan --health-stride 1 --out "$work/model3.lgm"; then
  echo "poisoned train unexpectedly succeeded"; exit 1
fi
bad=$(ls -t "$work/runs" | grep '^train-' | head -n 1)
for f in ring.jsonl panic.txt manifest.json counters.json stats.jsonl; do
  test -s "$work/runs/$bad/incident/$f"
done
"$cli" --runs-root "$work/runs" alerts | grep firing > /dev/null
grep '"state":"firing"' "$work/runs/alerts.jsonl" > /dev/null
if "$cli" --runs-root "$work/runs" alerts --gate; then
  echo "alerts --gate unexpectedly passed while an alert is firing"; exit 1
fi

echo "==> kernel perf gate"
# Retry on failure: --json-out min-merges across runs, so transient host
# contention washes out while a genuine regression fails every attempt.
gate_ok=0
for attempt in 1 2 3; do
  # Benched under LITHO_SIMD=auto explicitly: the baseline was blessed with
  # the SIMD kernels live, so gating a scalar run would always fail.
  LITHO_SIMD=auto cargo bench --bench nn_kernels --offline -- --quick --json-out="$work/BENCH_KERNELS.json"
  LITHO_SIMD=auto cargo bench --bench pipeline   --offline -- --quick --json-out="$work/BENCH_KERNELS.json"
  if target/release/perf_gate --current "$work/BENCH_KERNELS.json" --baseline ci/BENCH_KERNELS.json --tol-pct 15; then
    gate_ok=1
    break
  fi
  echo "perf gate attempt $attempt failed; re-benching"
done
test "$gate_ok" = 1

echo "==> all checks passed"
