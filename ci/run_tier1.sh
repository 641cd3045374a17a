#!/usr/bin/env bash
#
# Tier-1 gate: the checks every PR must keep green.
#
#   1. `tier1`  — full RelWithDebInfo build + the whole ctest suite.
#   1b. `-Werror` — every target (src, tests, bench, examples) built
#                 again with the existing -DTWOCS_WERROR=ON, so a new
#                 compiler warning fails the gate instead of scrolling
#                 past in a build log.
#   2. `tsan`   — ThreadSanitizer build; runs the concurrency-bearing
#                 suites (exec parallelFor/ParallelSweepRunner, the
#                 svc query service and the obs tracer) under TSan.
#   2b. `asan`  — AddressSanitizer + UndefinedBehaviorSanitizer build;
#                 runs the whole suite (UBSan findings are fatal).
#   3. obs gate — a traced sweep must produce a trace.json that the
#                 strict parser accepts; a traced 200-trial cluster
#                 Monte Carlo must print the untraced stdout byte for
#                 byte, write a valid trace and drop no spans; and
#                 span sites that are compiled in but disabled must
#                 stay under 1% overhead (bench/obs_overhead).
#   4. bench regression harness — sweep_throughput, micro_sim_perf,
#                 cluster_jitter, straggler_study and svc_throughput
#                 emit BENCH_<name>.json files, which must be strictly
#                 valid JSON carrying the twocs-bench-1 schema
#                 fields. Only schema presence is asserted — never
#                 timings, so a loaded CI host cannot flake the gate.
#                 (cluster_jitter does assert bit-identity of the
#                 compiled-replay trials vs one rebuilt run() per
#                 trial, which is host-independent.) The BENCH_*.json
#                 files are
#                 collected under build-tier1/bench-artifacts/ as the
#                 perf-trajectory artifact to upload.
#   5. 3D-parallelism gate — the zoo3d_parallel_sweep bench must emit
#                 the collective_lowering_* and zoo_study_ms schema
#                 keys, `twocs sweep --figure 2` (the zoo study),
#                 `twocs sweep --figure 12` under a full `--parallel`
#                 plan (flat and hierarchical topology) and `--engine
#                 event` must be byte-identical across --jobs, and so
#                 must the jittered cluster Monte Carlo, TP-only
#                 (`--tp 4`) and with overlapped DP collectives
#                 (`--parallel tp=4,dp=2`). `cluster --parallel
#                 tp=4,dp=8` must print something different with
#                 `overlap=0` (DP collectives serialized at the end of
#                 the iteration) than with the default overlap.
#   6. loopback serve smoke — `twocs serve --listen` with a 2-deep
#                 shard queue is saturated over TCP by the
#                 svc_throughput --connect driver: every request must
#                 be answered (computed or a structured `overloaded`
#                 shed), at least one shed must occur, and SIGTERM
#                 must drain cleanly (exit 0 + "drained:" report).
#
# Usage: ci/run_tier1.sh [jobs]

set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"
export CMAKE_BUILD_PARALLEL_LEVEL="${jobs}"
export CTEST_PARALLEL_LEVEL="${jobs}"

echo "== tier-1: build + full test suite =="
cmake --workflow --preset tier1

echo "== tier-1: every target builds warning-free (-Werror) =="
cmake -S . -B build-werror -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTWOCS_WERROR=ON
cmake --build build-werror

echo "== tier-1: ThreadSanitizer (exec + svc + obs) =="
cmake --workflow --preset tsan

echo "== tier-1: AddressSanitizer + UBSan (full suite) =="
cmake --workflow --preset asan

echo "== tier-1: traced sweep produces strictly valid JSON =="
twocs=build-tier1/src/cli/twocs
trace_out="build-tier1/ci_trace.json"
rm -f "${trace_out}"
"${twocs}" sweep --figure 10 --jobs 2 --trace-out "${trace_out}" \
    > /dev/null
"${twocs}" validate --trace "${trace_out}"

echo "== tier-1: traced Monte Carlo keeps every span, stdout unchanged =="
cluster_mc="--tp 8 --trials 200 --jitter 0.05 --jobs 2"
cluster_trace="build-tier1/ci_cluster_trace.json"
rm -f "${cluster_trace}"
"${twocs}" cluster ${cluster_mc} > build-tier1/ci_cluster_plain.out
"${twocs}" cluster ${cluster_mc} --trace-out "${cluster_trace}" \
    > build-tier1/ci_cluster_traced.out 2> build-tier1/ci_cluster_traced.err
cmp build-tier1/ci_cluster_plain.out build-tier1/ci_cluster_traced.out
"${twocs}" validate --trace "${cluster_trace}"
if grep -q 'spans dropped' build-tier1/ci_cluster_traced.err; then
    echo "traced cluster run dropped spans"
    exit 1
fi

echo "== tier-1: disabled-tracing overhead < 1% =="
build-tier1/bench/obs_overhead

echo "== tier-1: bench-regression JSON carries the schema =="
artifacts="build-tier1/bench-artifacts"
mkdir -p "${artifacts}"
bench_json="${artifacts}/BENCH_sweep_throughput.json"
rm -f "${bench_json}"
build-tier1/bench/sweep_throughput --jobs 2 \
    --bench-json "${bench_json}"
"${twocs}" validate --trace "${bench_json}"
grep -q '"schema": "twocs-bench-1"' "${bench_json}"
grep -q '"bench": "sweep_throughput"' "${bench_json}"
grep -q '"configs_per_sec_jobsN"' "${bench_json}"

echo "== tier-1: rebuild-vs-replay bench JSON carries the schema =="
msp_json="${artifacts}/BENCH_micro_sim_perf.json"
rm -f "${msp_json}"
build-tier1/bench/micro_sim_perf --bench-json "${msp_json}"
"${twocs}" validate --trace "${msp_json}"
grep -q '"schema": "twocs-bench-1"' "${msp_json}"
grep -q '"bench": "micro_sim_perf"' "${msp_json}"
grep -q '"tasks_per_sec_rebuild"' "${msp_json}"
grep -q '"tasks_per_sec_replay"' "${msp_json}"
grep -q '"tasks_per_sec_replay_fused"' "${msp_json}"
grep -q '"pass_chain_tasks_per_sec_replay"' "${msp_json}"
grep -q '"pass_chain_tasks_per_sec_replay_fused"' "${msp_json}"
grep -q '"pass_fuse_speedup"' "${msp_json}"
grep -q '"pass_fuse_compile_ms"' "${msp_json}"
grep -q '"graph_cache_hit_rate"' "${msp_json}"

cj_json="${artifacts}/BENCH_cluster_jitter.json"
rm -f "${cj_json}"
build-tier1/bench/cluster_jitter --jobs 2 --bench-json "${cj_json}"
"${twocs}" validate --trace "${cj_json}"
grep -q '"schema": "twocs-bench-1"' "${cj_json}"
grep -q '"bench": "cluster_jitter"' "${cj_json}"
grep -q '"trials_per_sec_rebuild"' "${cj_json}"
grep -q '"trials_per_sec_replay"' "${cj_json}"

ss_json="${artifacts}/BENCH_straggler_study.json"
rm -f "${ss_json}"
build-tier1/bench/straggler_study --bench-json "${ss_json}"
"${twocs}" validate --trace "${ss_json}"
grep -q '"schema": "twocs-bench-1"' "${ss_json}"
grep -q '"bench": "straggler_study"' "${ss_json}"
grep -q '"sims_per_sec_replay"' "${ss_json}"

svc_json="${artifacts}/BENCH_svc_throughput.json"
rm -f "${svc_json}"
build-tier1/bench/svc_throughput --bench-json "${svc_json}"
"${twocs}" validate --trace "${svc_json}"
grep -q '"schema": "twocs-bench-1"' "${svc_json}"
grep -q '"bench": "svc_throughput"' "${svc_json}"
grep -q '"net_qps_sustained"' "${svc_json}"
grep -q '"net_p99_ms"' "${svc_json}"
grep -q '"net_shed_rate"' "${svc_json}"

echo "== tier-1: 3D zoo sweep carries the collective_lowering keys =="
zoo_json="${artifacts}/BENCH_zoo3d_parallel_sweep.json"
rm -f "${zoo_json}"
build-tier1/bench/zoo3d_parallel_sweep --jobs 2 \
    --bench-json "${zoo_json}"
"${twocs}" validate --trace "${zoo_json}"
grep -q '"schema": "twocs-bench-1"' "${zoo_json}"
grep -q '"bench": "zoo3d_parallel_sweep"' "${zoo_json}"
grep -q '"collective_lowering_zero2_wire_ratio"' "${zoo_json}"
grep -q '"collective_lowering_zero3_wire_ratio"' "${zoo_json}"
grep -q '"collective_lowering_pp_p2p_bytes"' "${zoo_json}"
grep -q '"collective_lowering_ar_wire_bytes"' "${zoo_json}"
grep -q '"zoo_study_ms"' "${zoo_json}"

echo "== tier-1: figure-2 zoo sweep byte-identical across --jobs =="
f2_one="$("${twocs}" sweep --figure 2 --jobs 1)"
[ "${f2_one}" = "$("${twocs}" sweep --figure 2 --jobs 4)" ]

echo "== tier-1: Monte Carlo cluster trials byte-identical across --jobs =="
for cluster_flags in "--trials 8 --jitter 0.05 --tp 4" \
    "--trials 8 --jitter 0.05 --parallel tp=4,dp=2"; do
    seq_out="$("${twocs}" cluster ${cluster_flags} --jobs 1)"
    [ "${seq_out}" = "$("${twocs}" cluster ${cluster_flags} --jobs 4)" ]
done

echo "== tier-1: overlap=0 serializes the cluster's DP collectives =="
overlapped="$("${twocs}" cluster --parallel tp=4,dp=8)"
if [ "${overlapped}" = "$("${twocs}" cluster \
    --parallel tp=4,dp=8,overlap=0)" ]; then
    echo "cluster output does not depend on overlap=0"
    exit 1
fi

echo "== tier-1: 3D-plan sweeps byte-identical across --jobs =="
plan="tp=8,pp=4,dp=2,zero=1"
f12_one="$("${twocs}" sweep --figure 12 --parallel "${plan}" --jobs 1)"
f12_four="$("${twocs}" sweep --figure 12 --parallel "${plan}" --jobs 4)"
[ "${f12_one}" = "${f12_four}" ]
hier_one="$("${twocs}" sweep --figure 12 --parallel "${plan}" \
    --topology multi:8 --jobs 1)"
hier_two="$("${twocs}" sweep --figure 12 --parallel "${plan}" \
    --topology multi:8 --jobs 2)"
[ "${hier_one}" = "${hier_two}" ]

echo "== tier-1: figure-12 event sweep byte-identical across --jobs =="
# The event path groups points by structure through the process-wide
# graph cache (gated against a per-point CaseStudy::run in the
# GraphCacheSweep tests); its CLI output must not depend on --jobs.
f12_event="$("${twocs}" sweep --figure 12 --engine event --jobs 1)"
[ "${f12_event}" = "$("${twocs}" sweep --figure 12 --engine event \
    --jobs 4)" ]
# The batched trial engine is gone: --engine is an unknown option.
if "${twocs}" cluster --trials 4 --engine batched > /dev/null 2>&1; then
    echo "cluster accepted the removed --engine batched"
    exit 1
fi

echo "== tier-1: loopback serve smoke (shed under saturation, clean drain) =="
serve_log="build-tier1/ci_serve.log"
rm -f "${serve_log}"
"${twocs}" serve --listen 0 --shards 2 --queue-depth 2 --jobs 1 \
    2> "${serve_log}" &
serve_pid=$!
port=""
for _ in $(seq 1 50); do
    port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "${serve_log}")"
    [ -n "${port}" ] && break
    sleep 0.1
done
[ -n "${port}" ] || { echo "serve never reported its port"; exit 1; }
driver_out="$(build-tier1/bench/svc_throughput \
    --connect "${port}" --requests 2000)"
echo "${driver_out}"
echo "${driver_out}" | grep -q 'responses=2000'
# A 2-deep queue under a 2000-request blast must shed.
echo "${driver_out}" | grep -Eq 'overloaded=[1-9][0-9]*'
kill -TERM "${serve_pid}"
wait "${serve_pid}"
grep -q 'drained:' "${serve_log}"

echo "tier-1 gate: all green (artifacts in ${artifacts})"
