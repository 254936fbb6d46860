#!/usr/bin/env bash
# Full offline verification gate: formatting, lints, release build, the
# complete test suite, smoke runs of the kernel benchmark, and short
# checked runs of the repository benchmark (perfbench).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --doc --workspace"
cargo test -q --doc --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Allocation-audit gate: the counting-allocator suites must prove that
# steady-state train_step and fused McDropout::predict_into perform zero
# heap allocations after warm-up, and that the scratch arena reuses its
# buffers.
echo "==> alloc-audit gate (zero steady-state heap allocations)"
cargo test -q --release -p tasfar-nn --test alloc_audit
cargo test -q --release -p tasfar-core --test alloc_audit

# Backend gate: every kernel call runs on CpuBlocked, and CpuNaive is the
# bit-exact reference. The equivalence suite calls both through the Backend
# trait on the same inputs — every GEMM variant, the scaled-accumulate GEMM,
# and the conv forward/backward over signed zeros, subnormals and ±inf — and
# compares bits. (Golden hashes, gradchecks and the alloc audit run on the
# one backend in the alloc and adapter gates.)
echo "==> backend gate (CpuNaive vs CpuBlocked, bit for bit, release build)"
cargo test -q --release -p tasfar-nn --test backend_equiv

# Bench smoke: the binary self-checks on every release run — it aborts
# unless the fused MC-dropout path beats the per-pass path, the blocked
# backend beats naive on the largest matmul (1.1x), on a one-row
# `matmul 1x512x512` predict (1.3x: the thin arm streams the weights
# instead of packing them) and on the TCN's 16->16 conv (1.5x), and the
# hot-path allocation count is zero — so this smoke run doubles as the
# perf gate. It must run
# from the repo root (`.cargo/config.toml` carries `target-cpu=native` and
# is discovered from the working directory); TASFAR_BENCH_OUT keeps the
# scratch result file away from the committed BENCH_kernels.json.
echo "==> bench smoke (TASFAR_BENCH_QUICK=1, 3 samples)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
TASFAR_BENCH_QUICK=1 TASFAR_BENCH_SAMPLES=3 TASFAR_BENCH_OUT="$scratch/BENCH_kernels.json" \
    cargo run --release -p tasfar-bench --bin kernels >/dev/null

# Trace smoke gate: a small adaptation run with TASFAR_TRACE set must
# produce a JSONL trace where every line parses with `tasfar_nn::json` and
# carries ts/kind/name, covering the five pipeline stages, the training
# loop, and the parallel pool (`trace-check` validates all of that).
echo "==> trace smoke (TASFAR_TRACE on the quickstart example)"
TASFAR_TRACE="$scratch/trace.jsonl" \
    cargo run --release -p examples --bin quickstart >/dev/null
test -s "$scratch/trace.jsonl" || { echo "trace smoke: no trace written" >&2; exit 1; }
cargo run --release -p tasfar-obs --bin trace-check -- "$scratch/trace.jsonl" \
    --require stage.predict,stage.split,stage.estimate_density,stage.pseudo_label,stage.fine_tune,train_epoch,parallel_pool

# Analytics gate: obs-report on the traced quickstart must reconstruct the
# span forest, find all five pipeline stages, sum-check each adapt run's
# direct-child stage times against the run span (±1%), and emit a non-empty
# markdown profile, a valid collapsed-stack .folded file, and a Prometheus
# exposition of the trace's metrics snapshot.
echo "==> analytics gate (obs-report on the traced quickstart)"
cargo run --release -p tasfar-obs --bin obs-report -- "$scratch/trace.jsonl" \
    --md "$scratch/profile.md" --folded "$scratch/trace.folded" --prom "$scratch/metrics.prom" \
    --require-span stage.predict,stage.split,stage.estimate_density,stage.pseudo_label,stage.fine_tune \
    --sum-check adapt:0.01
test -s "$scratch/profile.md" || { echo "analytics gate: empty profile" >&2; exit 1; }
for stage in predict split estimate_density pseudo_label fine_tune; do
    grep -q "stage.$stage" "$scratch/profile.md" \
        || { echo "analytics gate: stage.$stage missing from profile" >&2; exit 1; }
done
test -s "$scratch/trace.folded" || { echo "analytics gate: empty .folded" >&2; exit 1; }
# Every folded line must be `stack;frames <self_ns>` — frames then an integer.
grep -vEq '^[^ ]+( [0-9]+)$' "$scratch/trace.folded" \
    && { echo "analytics gate: malformed .folded line" >&2; exit 1; }
grep -q ';adapt;stage\.' "$scratch/trace.folded" \
    || { echo "analytics gate: no adapt;stage.* stacks in .folded" >&2; exit 1; }
grep -q '^tasfar_pipeline_stage_ns_predict_bucket' "$scratch/metrics.prom" \
    || { echo "analytics gate: Prometheus exposition missing stage histogram" >&2; exit 1; }

# Perf-regression watchdog: bench-diff must pass when a baseline is compared
# against itself, and must fail on a deliberately perturbed candidate (all
# time metrics 1.25x — past every threshold). Exit codes: 0 pass, 1 regression.
echo "==> bench-diff gate (identity passes, 25% perturbation fails)"
cargo run --release -p tasfar-obs --bin bench-diff -- BENCH_kernels.json BENCH_kernels.json
cargo run --release -p tasfar-obs --bin bench-diff -- BENCH_adapters.json BENCH_adapters.json
cargo run --release -p tasfar-obs --bin bench-diff -- --perturb 1.25 BENCH_kernels.json "$scratch/perturbed.json"
if cargo run --release -p tasfar-obs --bin bench-diff -- BENCH_kernels.json "$scratch/perturbed.json" >/dev/null 2>&1; then
    echo "bench-diff gate: 25% regression was NOT caught" >&2; exit 1
fi

# Chaos gate: the fault-injection suite must hold (every fault class caught,
# classified, recovered or degraded per policy, rollbacks bit-identical) and
# a sabotaged quickstart must survive end-to-end — the quickstart parses
# TASFAR_CHAOS itself and arms the fault before its guarded run, which
# poisons the adaptation batch with NaNs; the guard must fall back to the
# source checkpoint, exit 0, and leave the recovery events in the trace. A
# misspelled fault must make the quickstart exit 2 listing the accepted
# names, not panic (101) and not run un-sabotaged.
echo "==> chaos gate (fault-injection suite + sabotaged quickstart)"
cargo test -q --release -p tasfar-core --test chaos
TASFAR_CHAOS=nan_batch TASFAR_TRACE="$scratch/chaos_trace.jsonl" \
    cargo run --release -p examples --bin quickstart >/dev/null
test -s "$scratch/chaos_trace.jsonl" || { echo "chaos gate: no trace written" >&2; exit 1; }
cargo run --release -p tasfar-obs --bin trace-check -- "$scratch/chaos_trace.jsonl" \
    --require chaos.injected,guard.rollback,adapt_guarded
status=0
TASFAR_CHAOS=nan_btach cargo run --release --quiet -p examples --bin quickstart \
    >/dev/null 2>"$scratch/chaos_typo.err" || status=$?
if [ "$status" -ne 2 ] || ! grep -q 'accepted: nan_batch, ' "$scratch/chaos_typo.err"; then
    cat "$scratch/chaos_typo.err" >&2
    echo "chaos gate: TASFAR_CHAOS=nan_btach exited $status, want 2 listing the accepted faults" >&2
    exit 1
fi

# Adapter gate: without adapters the pipeline must be bit-for-bit what it
# was before the subspace existed (golden hashes + gradcheck), the adapter
# chaos gauntlet and the delta-sized-checkpoint audit must hold, a rank:4
# quickstart (the quickstart parses TASFAR_ADAPTER itself) must adapt
# end-to-end (exit 0) leaving the `adapter_layer` record — the `adapter.*`
# gauges' trace bridge — in the trace alongside the fine-tune stage, and
# the per-scene partition example — the one binary that runs the per-group
# `adapt_delta` loop — must exit 0.
echo "==> adapter gate (no adapters = bit-identical; rank:4 quickstart; partitioned scenes)"
cargo test -q --release -p tasfar-core --test golden_adapt
cargo test -q --release -p tasfar-nn --lib gradcheck
cargo test -q --release -p tasfar-core --test chaos_adapter --test delta_audit
TASFAR_ADAPTER=rank:4 TASFAR_TRACE="$scratch/adapter_trace.jsonl" \
    cargo run --release -p examples --bin quickstart >/dev/null
test -s "$scratch/adapter_trace.jsonl" || { echo "adapter gate: no trace written" >&2; exit 1; }
cargo run --release -p tasfar-obs --bin trace-check -- "$scratch/adapter_trace.jsonl" \
    --require adapter_layer,stage.fine_tune,train_epoch
cargo run --release -p examples --bin partitioned_scenes >/dev/null

# Stream gate: the sliding-window/incremental-KDE suite and the mid-stream
# chaos gauntlet must hold; a traced streaming run with forced detector
# flapping must leave drift_trip events and readapt spans in the trace; and
# the perf watchdog must pass the committed streaming baseline against
# itself but catch a perturbed detection latency / re-adapt wall.
echo "==> stream gate (window suite, chaos gauntlet, traced drift, watchdog)"
cargo test -q --release -p tasfar-core --test stream_window --test chaos_stream
TASFAR_CHAOS=drift_flap TASFAR_TRACE="$scratch/stream_trace.jsonl" \
    cargo run --release -p examples --bin streaming >/dev/null
test -s "$scratch/stream_trace.jsonl" || { echo "stream gate: no trace written" >&2; exit 1; }
cargo run --release -p tasfar-obs --bin trace-check -- "$scratch/stream_trace.jsonl" \
    --require drift_trip,readapt
cargo run --release -p tasfar-obs --bin bench-diff -- BENCH_stream.json BENCH_stream.json
cargo run --release -p tasfar-obs --bin bench-diff -- --perturb 1.5 BENCH_stream.json "$scratch/stream_perturbed.json"
if cargo run --release -p tasfar-obs --bin bench-diff -- BENCH_stream.json "$scratch/stream_perturbed.json" >/dev/null 2>&1; then
    echo "stream gate: 50% detection-latency regression was NOT caught" >&2; exit 1
fi

# Serve gate: the multi-tenant serving suites must hold (fused-batch
# bit-identity pinned by FNV-1a hashes, bounded-queue Overloaded rejection,
# the slow-tenant/evict-storm chaos gauntlet); a traced serving run must
# leave serve.batch and serve.evict spans in the trace; a quick serve bench
# must self-assert batched >= 2x unbatched at the largest tenant count; and
# the watchdog must pass the committed serving baseline against itself but
# catch perturbed batch latencies.
echo "==> serve gate (bit-identity + chaos suites, traced run, 2x bench, watchdog)"
cargo test -q --release -p tasfar-serve
TASFAR_TRACE="$scratch/serve_trace.jsonl" \
    cargo run --release -p examples --bin serving >/dev/null
test -s "$scratch/serve_trace.jsonl" || { echo "serve gate: no trace written" >&2; exit 1; }
cargo run --release -p tasfar-obs --bin trace-check -- "$scratch/serve_trace.jsonl" \
    --require serve.batch,serve.evict
TASFAR_BENCH_QUICK=1 TASFAR_BENCH_OUT="$scratch/BENCH_serve.json" \
    cargo run --release -p tasfar-bench --bin serve >/dev/null
test -s "$scratch/BENCH_serve.json" || { echo "serve gate: no bench output" >&2; exit 1; }
cargo run --release -p tasfar-obs --bin bench-diff -- BENCH_serve.json BENCH_serve.json
cargo run --release -p tasfar-obs --bin bench-diff -- --perturb 1.3 BENCH_serve.json "$scratch/serve_perturbed.json"
if cargo run --release -p tasfar-obs --bin bench-diff -- BENCH_serve.json "$scratch/serve_perturbed.json" >/dev/null 2>&1; then
    echo "serve gate: 30% batch-latency regression was NOT caught" >&2; exit 1
fi

# Benchmark gate: nothing else builds perfbench (it is a workspace of its
# own), so its self-tests run here, and a short run of every workload must
# exit 0. Each run re-serves a sample of fused predicts through
# `serve_solo` and compares the bits, so a change to an API the benchmark
# calls, or a fused bit-identity break on any workload's model (the PDR
# TCN included), fails here rather than at the next benchmark run.
echo "==> benchmark gate (perfbench self-tests + 2 s run of each workload)"
cargo test -q --release --manifest-path perfbench/Cargo.toml
for w in serve_mlp_hot serve_tcn_cold adapt_tcn_mixed; do
    if ! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 2 --trace 0 >"$scratch/perfbench-$w.log" 2>&1; then
        cat "$scratch/perfbench-$w.log" >&2
        echo "benchmark gate: $w failed its correctness checks" >&2; exit 1
    fi
done
# One traced run: it replays the registry's lookups and reads the span
# forest back, which attribute serve time to hits and rehydrates. Nothing
# else runs that code, so it must exit 0 too.
if ! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve_tcn_cold --seed 1 --seconds 2 --trace 1 >"$scratch/perfbench-traced.log" 2>&1; then
    cat "$scratch/perfbench-traced.log" >&2
    echo "benchmark gate: traced serve_tcn_cold failed" >&2; exit 1
fi

echo "verify: all green"
