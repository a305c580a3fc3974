#!/usr/bin/env bash
# CI entry point: build, test, and the bench-bin gates.
#
# Tier-1 is `cargo build --release && cargo test -q`. The workspace has no
# registry dependencies, so both run offline.
#
# The gates, in order (each section below states its contract):
#   lane product registers   the release build's `ifma::amm` stores at
#                            most 40 zmm registers (right after the build)
#   observability overhead   the full MODP-1024 agreement with a disabled
#                            `Obs` handle stays within
#                            WAVEKEY_OVERHEAD_TOL (default 1%) of the
#                            baseline in results/BENCH_crypto.json
#   neural training speed    GEMM training vs the naive reference loops
#   int8 inference           quantized encoders: same seeds, speed, size
#   fault soak               recovery under the reference fault mixture,
#                            and a fault-free arm bit-identical to the
#                            lockstep driver
#   SLO load                 the Zipfian load generator's SLO verdicts
#   gateway soak             100k concurrent gateway sessions, with a
#                            bit-identical lockstep mirror
#   store soak               kill-and-recover at every journal record
#
# Usage:
#   ./ci.sh            # build + test + every gate
#   ./ci.sh fast       # build + test only
set -euo pipefail

ROOT=$(cd "$(dirname "$0")" && pwd)
cd "$ROOT"

# bench <bin> [ARGS...]: run one wavekey-bench binary from a release build.
bench() {
    local bin=$1; shift
    cargo run --release --offline --quiet -p wavekey-bench --bin "$bin" -- "$@"
}

echo "== build + test =="
cargo build --release --offline

echo "== lane product register check =="
# DESIGN.md §7: `ifma::amm`, the AVX512-IFMA lane product under every
# MODP-1024 exponentiation of the OT, keeps its 20 accumulators in zmm
# registers for the whole product. Its only zmm stores are then the 20
# registers of its result; a build that keeps the rotating frame in
# memory stores ~260. Fail above AMM_MAX_ZMM_STORES, or if the symbol is
# missing from the release binary.
AMM_MAX_ZMM_STORES=40
AMM_BIN="$ROOT/target/release/bench_crypto_json"
if ! command -v objdump >/dev/null; then
    echo "skipped: objdump is not installed"
elif [[ "$(rustc -vV | sed -n 's/^host: //p')" != x86_64-* ]]; then
    echo "skipped: the target is not x86-64, so there is no IFMA kernel"
else
    amm_asm=$(objdump -d --no-show-raw-insn -C "$AMM_BIN" \
        | awk '/<wavekey_crypto::ifma::amm>:$/ { p = 1; next } /^$/ { p = 0 } p')
    [[ -n "$amm_asm" ]] \
        || { echo "FAIL: wavekey_crypto::ifma::amm not found in $AMM_BIN" >&2; exit 1; }
    # AT&T syntax: a store names its zmm source before a memory operand.
    amm_stores=$(grep -cE '%zmm[0-9]+,[^%]*\(' <<<"$amm_asm" || true)
    echo "ifma::amm: $amm_stores zmm stores (max $AMM_MAX_ZMM_STORES)"
    (( amm_stores <= AMM_MAX_ZMM_STORES )) \
        || { echo "FAIL: ifma::amm spills its accumulators to memory" >&2; exit 1; }
    echo "OK: the lane product keeps its accumulators in registers"
fi

cargo test -q --offline

if [[ "${1:-}" == "fast" ]]; then
    echo "== done (fast mode: overhead, NN, int8, fault soak, SLO load, gateway soak and store soak gates skipped) =="
    exit 0
fi

field_of() { # field_of <name> <file>
    # Anchor the value match on the field name itself so lines carrying
    # several "name": value pairs resolve to the requested one.
    awk -v name="$1" '
        {
            if (match($0, "\"" name "\": *[a-z0-9.]+")) {
                v = substr($0, RSTART, RLENGTH)
                sub(/^"[^"]*": */, "", v)
                print v
                exit
            }
        }' "$2"
}

echo "== observability overhead gate =="
BASELINE_FILE="results/BENCH_crypto.json"
OP="agreement_full_modp1024_seed48_key256"
# Control op: the three-round OT batch. Its hot path has no
# observability attach point (the OT calls take no `Obs` handle; the
# machines time the rounds on their logical clocks), it exercises the
# same kernels as the agreement with comparable duration, and it is
# measured seconds apart in the same process — so its drift vs the
# recorded baseline tracks machine/compiler conditions and is subtracted
# to isolate instrumentation cost.
CONTROL="ot_batch48_three_rounds"
TOL="${WAVEKEY_OVERHEAD_TOL:-0.01}"

mean_of() { # mean_of <op> <file>
    awk -v op="$1" '
        $0 ~ "\"op\": \"" op "\"" {
            if (match($0, /"mean_ns": [0-9.]+/)) {
                print substr($0, RSTART + 11, RLENGTH - 11)
            }
        }' "$2"
}

baseline=$(mean_of "$OP" "$BASELINE_FILE")
baseline_ctl=$(mean_of "$CONTROL" "$BASELINE_FILE")
[[ -n "$baseline" && -n "$baseline_ctl" ]] \
    || { echo "missing baseline ops in $BASELINE_FILE" >&2; exit 1; }

fresh="$ROOT/target/ci-bench-crypto.json"
# A longer measurement window than the default so the ~200 ms agreement op
# averages over enough iterations for a sub-1% comparison to be meaningful.
WAVEKEY_BENCH_WINDOW="${WAVEKEY_BENCH_WINDOW:-3.0}" \
    bench bench_crypto_json "$fresh" >/dev/null

current=$(mean_of "$OP" "$fresh")
current_ctl=$(mean_of "$CONTROL" "$fresh")
[[ -n "$current" && -n "$current_ctl" ]] \
    || { echo "bench run produced no samples" >&2; exit 1; }

awk -v base="$baseline" -v cur="$current" \
    -v cbase="$baseline_ctl" -v ccur="$current_ctl" -v tol="$TOL" 'BEGIN {
    delta = (cur - base) / base
    drift = (ccur - cbase) / cbase
    net = delta - drift
    printf "agreement: baseline %.1f ms, current %.1f ms (%+.2f%%)\n",
        base / 1e6, cur / 1e6, delta * 100
    printf "control drift (%s): %+.2f%%  ->  net overhead %+.2f%% (tolerance +%.0f%%)\n",
        "ot_batch", drift * 100, net * 100, tol * 100
    # The gate is one-sided: instrumentation must not make the protocol
    # slower than tolerance; being faster is fine.
    if (net > tol) {
        print "FAIL: instrumented agreement exceeds the overhead tolerance"
        exit 1
    }
    print "OK: disabled-collector overhead within tolerance"
}'

echo "== neural training-speed gate =="
# The im2col/GEMM lowering must stay decisively faster than the pinned
# naive reference loops while producing bit-identical training losses and
# serialized model bytes. The bench re-trains the autoencoder stack under
# both backends; the gate requires the recorded speedup to stay above
# WAVEKEY_NN_SPEEDUP_MIN (default 2.5x — below the ~3.3x measured at
# recording time, leaving headroom for machine noise).
NN_JSON="$ROOT/target/ci-bench-nn.json"
NN_MIN="${WAVEKEY_NN_SPEEDUP_MIN:-2.5}"
bench bench_nn_json "$NN_JSON" >/dev/null

nn_identical=$(field_of "loss_bit_identical" "$NN_JSON")
nn_speedup=$(field_of "train_speedup" "$NN_JSON")
[[ -n "$nn_identical" && -n "$nn_speedup" ]] \
    || { echo "nn bench produced no samples" >&2; exit 1; }
echo "train_autoencoders speedup ${nn_speedup}x (min ${NN_MIN}x), loss_bit_identical=$nn_identical"
[[ "$nn_identical" == "true" ]] \
    || { echo "FAIL: GEMM training losses diverge from the naive reference" >&2; exit 1; }
awk -v s="$nn_speedup" -v min="$NN_MIN" 'BEGIN {
    if (s + 0 < min + 0) {
        print "FAIL: GEMM training speedup below the regression floor"
        exit 1
    }
    print "OK: GEMM backend holds its training-speed advantage"
}'

echo "== int8 quantized-inference gate =="
# The quantized encoders are only admissible when they change nothing the
# protocol can observe: every reference-corpus window must yield the same
# key-seed as the f32 path (bit-identical, re-checked end to end by the
# bench), both encoders must actually calibrate (no silent f32 fallback),
# and the speed/size wins that justify the path must hold — whole-encoder
# forward at least WAVEKEY_NN_INT8_SPEEDUP_MIN x the f32 GEMM forward
# (default 2.0x, against ~3.9x measured at recording time) and the
# serialized int8 models at most 30% of the f64 bytes. Reuses the
# bench_nn_json run from the training gate above.
INT8_MIN="${WAVEKEY_NN_INT8_SPEEDUP_MIN:-2.0}"
int8_seeds=$(field_of "seeds_bit_identical" "$NN_JSON")
int8_imu=$(field_of "imu_en_quantized" "$NN_JSON")
int8_rf=$(field_of "rf_en_quantized" "$NN_JSON")
int8_speedup=$(field_of "encoder_int8_speedup" "$NN_JSON")
int8_ratio=$(field_of "int8_size_ratio" "$NN_JSON")
[[ -n "$int8_seeds" && -n "$int8_speedup" && -n "$int8_ratio" ]] \
    || { echo "nn bench recorded no int8 summary" >&2; exit 1; }
echo "encoder int8 speedup ${int8_speedup}x (min ${INT8_MIN}x), size ratio ${int8_ratio}," \
     "imu_quantized=$int8_imu rf_quantized=$int8_rf seeds_bit_identical=$int8_seeds"
[[ "$int8_imu" == "true" && "$int8_rf" == "true" ]] \
    || { echo "FAIL: an encoder fell back to f32 during calibration" >&2; exit 1; }
[[ "$int8_seeds" == "true" ]] \
    || { echo "FAIL: quantized key-seeds diverge from the f32 seeds" >&2; exit 1; }
awk -v s="$int8_speedup" -v min="$INT8_MIN" -v r="$int8_ratio" 'BEGIN {
    if (s + 0 < min + 0) {
        print "FAIL: int8 encoder speedup below the regression floor"
        exit 1
    }
    if (r + 0 > 0.30) {
        print "FAIL: int8 model bytes exceed 30% of the f64 serialization"
        exit 1
    }
    print "OK: int8 encoders hold seed equivalence with their speed and size wins"
}'

echo "== fault-soak (chaos) gate =="
# The robustness contract: 96 gateway sessions run under the reference
# FaultPlan mixture on the SimNet. The recovery layer (retransmission +
# NAK + duplicate suppression + reorder deferral) must carry at least
# WAVEKEY_FAULT_SOAK_MIN of sessions to a key (default 0.90), the same
# mixture without recovery must lose more than half (proving the faults
# bite), and no surviving session may ever hold divergent mobile/gateway
# keys. With the faults removed the recovery layer must be provably inert
# and the concurrent driver exact: all 96 interleaved sessions succeed
# with keys bit-identical to the lockstep driver and 0 retransmits.
FAULT_JSON="$ROOT/target/ci-bench-faults.json"
FAULT_MIN="${WAVEKEY_FAULT_SOAK_MIN:-0.90}"
bench fault_soak "$FAULT_JSON" >/dev/null

fs_sessions=$(field_of "sessions" "$FAULT_JSON")
fs_bare=$(field_of "success_rate_no_recovery" "$FAULT_JSON")
fs_rec=$(field_of "success_rate_recovered" "$FAULT_JSON")
fs_div=$(field_of "divergent_key_successes" "$FAULT_JSON")
fs_ident=$(field_of "fault_free_keys_bit_identical" "$FAULT_JSON")
[[ -n "$fs_sessions" && -n "$fs_bare" && -n "$fs_rec" && -n "$fs_div" && -n "$fs_ident" ]] \
    || { echo "fault soak produced no samples" >&2; exit 1; }
echo "sessions $fs_sessions: no-recovery $fs_bare, recovered $fs_rec (min $FAULT_MIN), divergent $fs_div, fault_free_bit_identical=$fs_ident"
awk -v bare="$fs_bare" -v rec="$fs_rec" -v min="$FAULT_MIN" 'BEGIN {
    if (bare + 0 >= 0.5) {
        print "FAIL: fault mixture too gentle — no-recovery survival >= 50%"
        exit 1
    }
    if (rec + 0 < min + 0) {
        print "FAIL: recovered survival below the fault-soak floor"
        exit 1
    }
}'
[[ "$fs_div" == "0" ]] \
    || { echo "FAIL: a recovered session completed with divergent keys" >&2; exit 1; }
[[ "$fs_ident" == "true" ]] \
    || { echo "FAIL: recovery layer perturbs fault-free runs" >&2; exit 1; }
echo "OK: recovery layer survives the chaos mixture without corrupting keys"

echo "== SLO load gate =="
# The observability v2 contract: the Zipfian load generator drives
# enrol-heavy / auth-heavy / fault-heavy mixes through gateway fleets,
# evaluates each against declarative SLOs (p99 latency
# via WAVEKEY_SLO_P99_MS, throughput floor via WAVEKEY_SLO_MIN_SPS —
# defaults calibrated ~15x above the 1-core container's observed
# numbers), checks that the fault-heavy causal timelines export
# byte-identically across two runs, and appends a results/TREND.jsonl
# ledger line. The gate requires every SLO verdict to pass, determinism
# to hold, and zero divergent-key successes.
LOAD_JSON="$ROOT/target/ci-bench-load.json"
bench load_gen "$LOAD_JSON" >/dev/null

slo_pass=$(field_of "slo_all_pass" "$LOAD_JSON")
slo_det=$(field_of "timelines_deterministic" "$LOAD_JSON")
slo_div=$(field_of "divergent_key_successes" "$LOAD_JSON")
slo_sps=$(field_of "sessions_per_s" "$LOAD_JSON")
[[ -n "$slo_pass" && -n "$slo_det" && -n "$slo_div" ]] \
    || { echo "load generator produced no verdicts" >&2; exit 1; }
echo "sessions/s $slo_sps, slo_all_pass=$slo_pass, timelines_deterministic=$slo_det, divergent $slo_div"
[[ "$slo_det" == "true" ]] \
    || { echo "FAIL: causal timelines diverge between identical fault-heavy runs" >&2; exit 1; }
[[ "$slo_div" == "0" ]] \
    || { echo "FAIL: a load-gen session completed with divergent keys" >&2; exit 1; }
[[ "$slo_pass" == "true" ]] \
    || { echo "FAIL: an SLO verdict failed (see $LOAD_JSON)" >&2; exit 1; }
echo "OK: all traffic mixes hold their SLOs with deterministic timelines"

echo "== gateway soak gate =="
# The async-gateway contract at fleet scale: WAVEKEY_GATEWAY_SESSIONS
# (default 100,000) sessions all in flight at once through one event
# loop must every one complete with matching mobile/gateway keys
# (divergent_keys == 0), peak_in_flight must reach the fleet size (the
# soak measures genuine concurrency, not a trickle), peak RSS must stay
# under WAVEKEY_GATEWAY_MAX_RSS_MB, a strided lockstep mirror must be
# bit-identical (byte chunking never reaches the machines), lossless
# stream faults must change no key, and the lossy arm may evict but
# never corrupt. The bench appends the run to results/TREND.jsonl.
GW_JSON="$ROOT/target/ci-bench-gateway.json"
bench gateway_soak "$GW_JSON" >/dev/null

gw_sessions=$(field_of "sessions" "$GW_JSON")
gw_completed=$(field_of "completed" "$GW_JSON")
gw_peak=$(field_of "peak_in_flight" "$GW_JSON")
gw_div=$(field_of "divergent_keys" "$GW_JSON")
gw_rss=$(field_of "peak_rss_mb" "$GW_JSON")
gw_rss_pass=$(field_of "rss_pass" "$GW_JSON")
gw_lockstep=$(field_of "lockstep_bit_identical" "$GW_JSON")
gw_lossless=$(field_of "lossless_keys_identical" "$GW_JSON")
gw_lossy_div=$(field_of "lossy_divergent" "$GW_JSON")
gw_pass=$(field_of "gateway_soak_pass" "$GW_JSON")
[[ -n "$gw_sessions" && -n "$gw_completed" && -n "$gw_div" && -n "$gw_pass" ]] \
    || { echo "gateway soak produced no verdicts" >&2; exit 1; }
echo "sessions $gw_sessions: completed $gw_completed, peak_in_flight $gw_peak, divergent $gw_div"
echo "peak RSS ${gw_rss} MiB (pass $gw_rss_pass), lockstep_bit_identical=$gw_lockstep, lossless_keys_identical=$gw_lossless, lossy divergent $gw_lossy_div"
[[ "$gw_completed" == "$gw_sessions" ]] \
    || { echo "FAIL: not every gateway session completed" >&2; exit 1; }
[[ "$gw_div" == "0" && "$gw_lossy_div" == "0" ]] \
    || { echo "FAIL: a gateway session completed with divergent keys" >&2; exit 1; }
[[ "$gw_lockstep" == "true" ]] \
    || { echo "FAIL: gateway keys diverge from the lockstep driver" >&2; exit 1; }
[[ "$gw_lossless" == "true" ]] \
    || { echo "FAIL: lossless stream faults perturbed a key" >&2; exit 1; }
[[ "$gw_rss_pass" == "true" ]] \
    || { echo "FAIL: gateway soak exceeded the memory ceiling" >&2; exit 1; }
[[ "$gw_pass" == "true" ]] \
    || { echo "FAIL: gateway soak gate failed (see $GW_JSON)" >&2; exit 1; }
echo "OK: the gateway holds $gw_sessions concurrent sessions with lockstep-identical keys"

echo "== store soak gate =="
# The durability contract: kill-and-recover at every journal record
# boundary (clean cuts, torn tails, bit rot, live-faulted media) must
# reproduce the never-crashed twin — the recovered-prefix rate must meet
# WAVEKEY_STORE_SOAK_MIN (default 0.99), the fault-free full recovery
# must be bit-identical, snapshot + tail replay must equal full replay,
# and no recovery may surface a key the workload never bound
# (divergent_keys == 0). Under a 4-key memory ceiling on faulted media,
# reloads must happen (ceiling_reloads > 0) and no read may return
# anything but the fault-free twin's current key or an error
# (ceiling_stale_keys == 0). The bench appends the run to
# results/TREND.jsonl.
STORE_SOAK_MIN="${WAVEKEY_STORE_SOAK_MIN:-0.99}"
STORE_JSON="$ROOT/target/ci-bench-store.json"
bench store_soak "$STORE_JSON" >/dev/null

st_ops=$(field_of "ops" "$STORE_JSON")
st_kills=$(field_of "kill_points" "$STORE_JSON")
st_rate=$(field_of "recovered_rate" "$STORE_JSON")
st_div=$(field_of "divergent_keys" "$STORE_JSON")
st_bit=$(field_of "fault_free_bit_identical" "$STORE_JSON")
st_snap=$(field_of "snapshot_equivalent" "$STORE_JSON")
st_stale=$(field_of "ceiling_stale_keys" "$STORE_JSON")
st_reloads=$(field_of "ceiling_reloads" "$STORE_JSON")
st_pass=$(field_of "store_soak_pass" "$STORE_JSON")
[[ -n "$st_rate" && -n "$st_div" && -n "$st_stale" && -n "$st_reloads" && -n "$st_pass" ]] \
    || { echo "store soak produced no verdicts" >&2; exit 1; }
echo "ops $st_ops, kill points $st_kills, recovered_rate $st_rate (floor $STORE_SOAK_MIN), divergent $st_div"
echo "fault_free_bit_identical=$st_bit, snapshot_equivalent=$st_snap"
echo "ceiling reads: stale $st_stale, reloads $st_reloads"
awk -v rate="$st_rate" -v min="$STORE_SOAK_MIN" 'BEGIN { exit !(rate >= min) }' \
    || { echo "FAIL: recovery rate $st_rate below floor $STORE_SOAK_MIN" >&2; exit 1; }
[[ "$st_div" == "0" ]] \
    || { echo "FAIL: a recovery surfaced a divergent key" >&2; exit 1; }
[[ "$st_bit" == "true" ]] \
    || { echo "FAIL: fault-free recovery is not bit-identical to the twin" >&2; exit 1; }
[[ "$st_snap" == "true" ]] \
    || { echo "FAIL: snapshot + tail replay diverges from full replay" >&2; exit 1; }
[[ "$st_stale" == "0" ]] \
    || { echo "FAIL: a read under the memory ceiling returned a stale key" >&2; exit 1; }
awk -v n="$st_reloads" 'BEGIN { exit !(n > 0) }' \
    || { echo "FAIL: the memory-ceiling arm never reloaded a key" >&2; exit 1; }
[[ "$st_pass" == "true" ]] \
    || { echo "FAIL: store soak gate failed (see $STORE_JSON)" >&2; exit 1; }
echo "OK: every kill point recovers to an exact operation prefix"
echo "== done =="
