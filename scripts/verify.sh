#!/usr/bin/env bash
# Full offline verification gate for the workspace.
#
#   scripts/verify.sh [LOG_DIR]
#
# Runs formatting, the tier-1 gate (release build + root-package tests)
# exactly as the roadmap specifies, then the complete workspace test
# suite and a warnings-as-errors clippy pass. Everything runs --offline:
# the only dependencies are the in-tree shims under shims/.
#
# Each stage's output is tee'd into LOG_DIR (default: a temp dir) so CI
# can archive it. The stage runner checks PIPESTATUS[0] explicitly: the
# stage's own exit status decides pass/fail, never the tee's, and a
# failure aborts the gate with a named stage and log path instead of
# being masked by the pipeline.

set -euo pipefail
cd "$(dirname "$0")/.."

LOG_DIR="${1:-$(mktemp -d)}"
mkdir -p "$LOG_DIR"

stage() {
    local name="$1"
    shift
    echo "==> ${name}: $*"
    local log="${LOG_DIR}/${name//[^A-Za-z0-9_-]/_}.log"
    # Run the stage through tee and take ITS status, not tee's. The
    # failure branch hangs off `||` so errexit+pipefail cannot abort the
    # script before the stage name and log path are reported.
    "$@" 2>&1 | tee "$log" || {
        local status="${PIPESTATUS[0]}"
        # pipefail tripped but the stage itself was fine: the tee died.
        [[ "$status" -eq 0 ]] && status=1
        echo "==> verify FAILED at ${name} (exit ${status}, log: ${log})" >&2
        exit "$status"
    }
}

stage fmt cargo fmt --all -- --check
stage tier1-build cargo build --release --offline
stage tier1-test cargo test -q --offline
stage workspace cargo test --workspace --release -q --offline
stage clippy cargo clippy --workspace --all-targets --offline -- -D warnings
stage rustdoc env RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline

# Observability smoke: shadow-sampling overhead gate, a live /metrics
# scrape over a real TCP socket, and the injected-drift /health demo.
# The scrape artifacts land next to the stage logs.
stage obs-smoke cargo run --release --offline -q -p nacu-bench --bin obs_smoke -- \
    --smoke \
    --prom "${LOG_DIR}/obs_metrics.prom" \
    --json "${LOG_DIR}/obs_metrics.json" \
    --trace "${LOG_DIR}/obs_trace.json" \
    --drift-prom "${LOG_DIR}/obs_drift.prom"

# SLO smoke: windowed-telemetry plane end to end — the background
# sampler must cost ≤ 3% throughput, a latency-spike + expired-deadline
# storm must flip /slo to 503 with both burn-rate alarms active
# (must-fire), and the alarms must clear once the storm ages out of the
# burn windows (must-clear). The burning /slo body and /metrics
# exposition land next to the stage logs.
stage slo-smoke cargo run --release --offline -q -p nacu-bench --bin slo_smoke -- \
    --smoke \
    --slo "${LOG_DIR}/slo_pr.json" \
    --prom "${LOG_DIR}/slo_metrics.prom"

# Network serving smoke: loopback loadgen through the nacu-net TCP
# plane plus the deterministic BUSY/SHED/QUOTA admission demo. The
# net_pr.json record lands next to the stage logs.
stage net-smoke cargo run --release --offline -q -p nacu-bench --bin net_loadgen -- \
    --smoke \
    --out "${LOG_DIR}/net_pr.json"

# Record/replay smoke: re-record the canonical mixed workload,
# byte-compare it against the committed golden trace, replay the golden
# trace bit-for-bit across engine configurations and over a loopback
# socket, and prove a 1-LSB-perturbed engine fails the diff — the same
# gate the CI replay-gate job runs. --paced keeps the gap-re-applying
# replay driver on the gated path (a no-op on the stripped golden).
stage replay-smoke cargo run --release --offline -q -p nacu-bench --bin trace_replay -- \
    --gate --smoke --paced \
    --golden ci/REPLAY_golden.trace \
    --report "${LOG_DIR}/replay_divergence.txt" \
    --out "${LOG_DIR}/replay_pr.json"

# Regenerate the full experiment reproduction transcript into the log
# directory (it is a build artifact, not a committed file — EXPERIMENTS.md
# quotes numbers from it). The Fig. 4 LUT-size searches dominate: ~1 min
# release on a modern core. Skip with VERIFY_SKIP_REPRO=1 for quick loops.
if [[ "${VERIFY_SKIP_REPRO:-0}" != "1" ]]; then
    stage repro-all cargo run --release --offline -q -p nacu-bench --bin repro_all
    cp "${LOG_DIR}/repro-all.log" "${LOG_DIR}/repro_output.txt"
fi

echo "==> verify OK (logs in ${LOG_DIR})"
