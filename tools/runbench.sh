#!/usr/bin/env bash
# Regenerate the committed benchmark baselines (bench/baselines/) at
# the pinned smoke scale, or produce a fresh set for benchdiff.py.
#
#   tools/runbench.sh [--build-dir DIR] [--out DIR]
#
# Runs the nine benches that back the regression gate
# (figure5_speedup, figure6_aborts, figure7_failover,
# figure8_sensitivity, and bench_svc in its service-latency,
# scaling-curve, predictor-A/B, batching-A/B, and durability-A/B modes)
# with --quick (the pinned smoke scale: figure5/6/8 at scale 0.5,
# figure7 at 96 tx/thread, svc at 24 requests/client, scaling at 12
# requests/client) and writes
# BENCH_<name>.json into --out (default bench/baselines/, i.e. refresh
# the committed baselines in place).
#
# The simulator is deterministic, so two runs of the same tree produce
# byte-identical rows; CI requires a fresh --out to match the committed
# baselines byte for byte (tools/benchdiff.py reports what moved).

set -euo pipefail

repo_dir="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_dir/build"
out_dir="$repo_dir/bench/baselines"

while [ $# -gt 0 ]; do
    case "$1" in
        --build-dir) build_dir="$2"; shift 2 ;;
        --out) out_dir="$2"; shift 2 ;;
        *) echo "usage: $0 [--build-dir DIR] [--out DIR]" >&2; exit 2 ;;
    esac
done

mkdir -p "$out_dir"

# binary:bench-name[:extra-arg] triples (bench_svc reports as
# "svc_latency" by default, "svc_scaling" with --scaling,
# "svc_predictor" with --predictor, "svc_batching" with --batching,
# and "svc_durable" with --durable).
for spec in figure5_speedup:figure5_speedup figure6_aborts:figure6_aborts \
            figure7_failover:figure7_failover \
            figure8_sensitivity:figure8_sensitivity bench_svc:svc_latency \
            bench_svc:svc_scaling:--scaling \
            bench_svc:svc_predictor:--predictor \
            bench_svc:svc_batching:--batching \
            bench_svc:svc_durable:--durable; do
    rest="${spec#*:}"
    bin="$build_dir/bench/${spec%%:*}"
    bench="${rest%%:*}"
    extra=""
    case "$rest" in *:*) extra="${rest#*:}" ;; esac
    if [ ! -x "$bin" ]; then
        echo "runbench: $bin not built (cmake --build $build_dir)" >&2
        exit 2
    fi
    echo "runbench: ${spec%%:*} --quick $extra -> $out_dir/BENCH_$bench.json" >&2
    # shellcheck disable=SC2086
    "$bin" --quick $extra "--json=$out_dir/BENCH_$bench.json" > /dev/null
done
echo "runbench: done" >&2
