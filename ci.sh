#!/usr/bin/env bash
# CI entry point: build, test, and the bench-bin gates.
#
# Tier-1 is `cargo build --release && cargo test -q`. The workspace has no
# registry dependencies, so both run offline.
#
# Each gate is one wavekey-bench binary: it measures, prints every check
# with its bound, and exits non-zero when one fails. The bounds are
# constants in the binary, beside the measurement. Each binary writes its
# JSON under target/, so a run leaves results/ as it found it.
#
# Usage:
#   ./ci.sh            # build + test + every gate
#   ./ci.sh fast       # build + test only
set -euo pipefail

ROOT=$(cd "$(dirname "$0")" && pwd)
cd "$ROOT"

# gate <bin>: run one wavekey-bench gate binary from the release build.
gate() {
    echo "== $1 =="
    cargo run --release --offline --quiet -p wavekey-bench --bin "$1" -- \
        "$ROOT/target/ci-$1.json"
}

echo "== build + test =="
cargo build --release --offline
cargo test -q --offline

if [[ "${1:-}" == "fast" ]]; then
    echo "== done (fast mode: the bench-bin gates skipped) =="
    exit 0
fi

# Observability overhead (DESIGN.md §8): the full ristretto255 agreement,
# observability compiled in, is timed call by call against the OT-batch
# control, and the median agreement/control ratio stays within 1 % of
# the one recorded in results/BENCH_crypto.json.
gate bench_crypto_json

# Neural training speed and int8 inference (DESIGN.md §10, §15): GEMM
# training at least 2.5x the reference loops, with bit-identical losses
# and models; both encoders calibrated with bit-identical int8 key-seeds,
# the int8 forward at least 2.0x the f32 one, and the int8 models at most
# 30 % of the f64 bytes.
gate bench_nn_json

# Fault soak (DESIGN.md §11.3): 96 gateway sessions under the reference
# fault mixture survive below 50 % without recovery and at least 90 %
# with it, with 0 divergent keys; the fault-free arm is bit-identical to
# the lockstep driver; the sensing pipelines absorb their reference
# faults on all 16 seeds.
gate fault_soak

# SLO load (DESIGN.md §13.4): every Zipfian mix holds its p99 objective
# (100 ms, 400 ms under faults) and success floor, the enrol mix runs at
# least 20 sessions/s, the fault timelines are deterministic, and no
# session holds divergent keys.
gate load_gen

# Gateway soak (DESIGN.md §14.4): WAVEKEY_GATEWAY_SESSIONS (default
# 100,000) sessions in flight at once all complete with 0 divergent keys
# under 820 MiB peak RSS; a lockstep mirror is bit-identical, lossless
# stream faults change no key, and lossy ones corrupt none.
gate gateway_soak

# Store soak (DESIGN.md §16.5): kill-and-recover at every journal record
# boundary reproduces the never-crashed twin (rate 1.0, 0 divergent
# keys), snapshot + tail replay equals full replay, and reads under a
# 4-key memory ceiling on faulted media reload and never return a stale
# key.
gate store_soak

echo "== done =="
