#!/usr/bin/env bash
# Builds the WaveKey library crates with plain rustc, without cargo.
#
#   tools/offline_rig/build.sh [build]
#
# Compiles every workspace library in dependency order into
# `$RIG_OUT/lib<crate>.rlib` (default `target/offline-rig`), at
# `-C opt-level=3` like cargo's release profile. `wavekey-rand` is built
# under the crate name `rand`, the name the workspace imports it by.
# wavekey-benchmark/run.sh uses this to build the benchmark binary when
# cargo cannot resolve that package's manifest. Everything else builds
# with cargo (`cargo build --release`).
#
# Incremental: a crate is rebuilt only when one of its sources or an
# upstream rlib is newer than its own rlib.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/../.." && pwd)
OUT="${RIG_OUT:-$ROOT/target/offline-rig}"
mkdir -p "$OUT"

# stale <artifact> <input>...: an input (a directory means its *.rs) is
# newer than the artifact, or the artifact is missing.
stale() {
    local art=$1; shift
    [[ ! -e "$art" ]] && return 0
    local f
    for f in "$@"; do
        if [[ -d "$f" ]]; then
            [[ -n "$(find "$f" -name '*.rs' -newer "$art" -print -quit)" ]] && return 0
        else
            [[ "$f" -nt "$art" ]] && return 0
        fi
    done
    return 1
}

# lib <crate_name> <crate_dir> <extern>...
lib() {
    local name=$1 dir=$ROOT/crates/$2; shift 2
    local deps=() externs=() e
    for e in "$@"; do
        deps+=("$OUT/lib$e.rlib")
        externs+=(--extern "$e=$OUT/lib$e.rlib")
    done
    if stale "$OUT/lib$name.rlib" "$dir/src" "${deps[@]}"; then
        echo "[rig] lib $name"
        rustc --edition 2021 -C opt-level=3 --crate-type rlib --crate-name "$name" \
            "$dir/src/lib.rs" -L "$OUT" --out-dir "$OUT" "${externs[@]}"
    fi
}

case "${1:-build}" in
    build) ;;
    *) echo "usage: build.sh [build]" >&2; exit 2 ;;
esac

lib rand            wavekey-rand
lib wavekey_par     wavekey-par
lib wavekey_math    wavekey-math
lib wavekey_obs     wavekey-obs
lib wavekey_store   wavekey-store
lib wavekey_dsp     wavekey-dsp     wavekey_math
lib wavekey_nn      wavekey-nn      rand wavekey_par
lib wavekey_imu     wavekey-imu     rand wavekey_math wavekey_dsp
lib wavekey_rfid    wavekey-rfid    rand wavekey_math wavekey_dsp wavekey_imu
lib wavekey_crypto  wavekey-crypto  rand wavekey_par
lib wavekey_core    wavekey-core    rand wavekey_math wavekey_dsp wavekey_nn \
    wavekey_imu wavekey_rfid wavekey_crypto wavekey_store wavekey_obs
lib wavekey_gateway wavekey-gateway rand wavekey_crypto wavekey_core wavekey_store wavekey_obs
lib wavekey_bench   wavekey-bench   rand wavekey_par wavekey_math wavekey_dsp wavekey_nn \
    wavekey_imu wavekey_rfid wavekey_crypto wavekey_store wavekey_core wavekey_obs wavekey_gateway
