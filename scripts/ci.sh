#!/usr/bin/env bash
# Per-PR gate for the GreenNFV tree:
#   1. the tier-1 verify line from ROADMAP.md (Release build, full ctest),
#      then a run_scenario smoke over the ci-smoke preset so the
#      Scenario/Experiment API (full scheduler roster, tiny budgets) is
#      exercised end to end in the gate, the example smokes (campaigns,
#      fleets, topology, tracing, faults, reports) with their refusal
#      checks, and a traced perfbench fleet-churn run whose layer replay
#      must still reproduce run_model bit for bit. Timing lives only in
#      perfbench; the event == reference engine check is the
#      FleetDeterminism ctest suite.
#   2. an ASan/UBSan Debug build of the test suite, with the nfvsim suites
#      (threaded engine, mempool, ring) always run under the sanitizers —
#      that's where data races and lifetime bugs would land.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== [1/2] tier-1 verify: Release build + full ctest ==="
# Pin every option: a stale build/ cache (Debug, sanitizers, bench off...)
# must not silently weaken what this gate claims to have checked.
cmake -B build -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DGREENNFV_SANITIZE=OFF \
  -DGREENNFV_BUILD_TESTS=ON \
  -DGREENNFV_BUILD_BENCH=ON \
  -DGREENNFV_BUILD_EXAMPLES=ON
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure --no-tests=error -j "$JOBS")

echo
echo "=== [1b] scenario smoke: ci-smoke preset, full roster ==="
./build/example_run_scenario scenario=ci-smoke
# Saved scenario files must reload bit for bit through the shipping CLI:
# the fault, fleet and explicit-flow key families, save -> load -> save.
mkdir -p out
for preset in fault-smoke mega-fleet tcp-heavy; do
  ./build/example_run_scenario scenario="$preset" \
    save="out/ci_$preset.a.scenario"
  ./build/example_run_scenario scenario_file="out/ci_$preset.a.scenario" \
    save="out/ci_$preset.b.scenario"
  cmp "out/ci_$preset.a.scenario" "out/ci_$preset.b.scenario"
done
# Out-of-domain keys are refused up front with exit 2 and the key named:
# not an abort deep in the hardware model, not a campaign that dies
# mid-sweep, not a saved scenario holding nan.
expect_refusal() {
  local key="$1" status=0
  shift
  "$@" > out/ci_refusal.log 2>&1 || status=$?
  if [[ $status -ne 2 ]] || ! grep -q "$key" out/ci_refusal.log; then
    echo "expected a refusal naming $key (exit 2), got exit $status: $*"
    cat out/ci_refusal.log
    exit 1
  fi
}
expect_refusal node_cores \
  ./build/example_run_scenario scenario=ci-smoke node_cores=0
expect_refusal node_cores \
  ./build/example_run_campaign scenarios=ci-smoke sweep.node_cores=0,16 \
  expand=1
expect_refusal node_fmax_ghz \
  ./build/example_run_scenario scenario=ci-smoke models=baseline \
  node_fmax_ghz=1e9
rm -f out/ci_nan.scenario
expect_refusal window_s \
  ./build/example_run_scenario scenario=ci-smoke window_s=nan \
  noise_sigma=nan save=out/ci_nan.scenario
test ! -e out/ci_nan.scenario

echo
echo "=== [1c] campaign smoke: 2 presets x 2 seeds, jobs=2 ==="
# fresh=1 so the gate always exercises real parallel execution (not a
# cache hit from a previous run), then the manifest must parse with every
# aggregate field finite.
./build/example_run_campaign campaign=ci-campaign-smoke jobs=2 fresh=1
./build/example_run_campaign \
  validate_manifest=out/ci-campaign-smoke/manifest.json

echo
echo "=== [1c2] fleet smoke: dynamic 3-node fleet through the orchestrator ==="
# Online arrivals/departures, consolidation migrations, and power gating
# end to end (the consolidate policy + reactive models keep it seconds).
./build/example_run_scenario scenario=fleet-smoke models=baseline,ee-pstate

echo
echo "=== [1c3] placement-sweep smoke: 2 cells at jobs=2 ==="
# A 2-cell expansion of the placement-sweep preset (one fleet size, two
# placement policies) with CI-sized windows, then the manifest must parse
# with every aggregate field finite — same contract as the campaign smoke.
./build/example_run_campaign campaign=placement-sweep \
  sweep.nodes=3 sweep.placement=least-loaded,energy-bestfit \
  models=baseline eval_windows=3 sub_windows=2 window_s=2 \
  jobs=2 fresh=1
./build/example_run_campaign \
  validate_manifest=out/placement-sweep/manifest.json

echo
echo "=== [1c5] topology fleet smoke: leaf-spine fabric + latency SLA ==="
# The network subsystem end to end: routed placement over a 3-node
# leaf-spine fabric with the topology-aware policy, link energy folded
# into the decomposition, and the 40 us latency SLA gating the SLA column.
./build/example_run_scenario scenario=fleet-smoke models=baseline,ee-pstate \
  topology.enabled=1 topology.preset=leaf-spine \
  fleet.policy=topology-aware-bestfit sla.latency=40

echo
echo "=== [1c6] path-frontier smoke: 2 topology cells at jobs=2 ==="
# A 2-cell slice of the path-frontier preset (one preset axis value, two
# policies, one latency budget) on the starved fabric, then the manifest
# must parse with every aggregate field finite.
./build/example_run_campaign campaign=path-frontier \
  sweep.topology.preset=leaf-spine \
  sweep.fleet.policy=energy-bestfit,topology-aware-bestfit \
  sweep.sla.latency=40 \
  models=baseline eval_windows=3 sub_windows=2 window_s=2 \
  jobs=2 fresh=1
./build/example_run_campaign \
  validate_manifest=out/path-frontier/manifest.json

echo
echo "=== [1c7] flight recorder: traced runs, trace validation, timing ==="
# Observability end to end: a traced fleet smoke must emit a Perfetto
# JSON that validate_trace accepts (schema keys, finite timestamps,
# per-thread completion order), and a traced parallel campaign must print
# the per-cell timing table while leaving artifacts byte-identical (the
# telemetry.TraceDeterminism suite pins the byte-identity itself).
./build/example_run_scenario scenario=fleet-smoke models=baseline \
  trace=ci_fleet_smoke.trace.json metrics=1
./build/example_run_scenario validate_trace=out/ci_fleet_smoke.trace.json
./build/example_run_campaign campaign=ci-campaign-smoke jobs=4 fresh=1 \
  trace=campaign.trace.json timing=1
./build/example_run_scenario \
  validate_trace=out/ci-campaign-smoke/campaign.trace.json

echo
echo "=== [1c8] fault smoke: crashes, repairs, recovery under SLA pressure ==="
# The fault subsystem end to end: the fault-smoke preset (node crashes,
# rack-outage chance, wake storms, exponential repairs) through the full
# model evaluation, then a 2-cell slice of the resilience-frontier preset
# (one crash rate, two recovery policies) at jobs=2 with the same
# manifest contract as every other campaign smoke.
./build/example_run_scenario scenario=fault-smoke models=baseline,ee-pstate
./build/example_run_campaign campaign=resilience-frontier \
  sweep.fault.node_crash_rate=0.3 \
  sweep.fleet.policy=energy-bestfit,topology-aware-bestfit \
  sweep.sla.latency=40 \
  models=baseline eval_windows=3 sub_windows=2 window_s=2 \
  jobs=2 fresh=1
./build/example_run_campaign \
  validate_manifest=out/resilience-frontier/manifest.json

echo
echo "=== [1c9] health series + campaign report: generate and validate ==="
# The observability stack end to end: a 2-cell resilience-frontier slice
# with per-window series sampling on and an HTML report rendered from the
# finished directory, then every artifact class (per-run series CSV +
# JSON, report model, dashboard HTML) must pass its schema validator, and
# a counter snapshot must land as parseable JSON. The byte-identity of
# sampled vs unsampled runs is pinned by telemetry.SeriesDeterminism in
# the tier-1 suite above.
./build/example_run_campaign campaign=resilience-frontier \
  sweep.fault.node_crash_rate=0.3 \
  sweep.fleet.policy=energy-bestfit,topology-aware-bestfit \
  sweep.sla.latency=40 \
  models=baseline eval_windows=3 sub_windows=2 window_s=2 \
  jobs=2 fresh=1 series=1 report=report.html metrics_out=metrics.json
./build/example_run_report validate=out/resilience-frontier/report.html
./build/example_run_report validate=out/resilience-frontier/report.json
for series_file in out/resilience-frontier/runs/*.series.csv \
                   out/resilience-frontier/runs/*.series.json; do
  ./build/example_run_report validate="$series_file"
done
python3 -c "import json; json.load(open('out/resilience-frontier/metrics.json'))"
# Post-hoc generation must reproduce the dashboard from artifacts alone.
./build/example_run_report dir=out/resilience-frontier html=report_posthoc.html
./build/example_run_report validate=out/resilience-frontier/report_posthoc.html
# A manifest whose Pareto front indexes a cell that does not exist is
# refused with the field named, not rendered out of bounds.
rm -rf out/ci_bad_pareto
cp -r out/resilience-frontier out/ci_bad_pareto
python3 - out/ci_bad_pareto/manifest.json <<'PY'
import json, sys
manifest = json.load(open(sys.argv[1]))
manifest["summary"]["pareto"] = [0, 100000]
json.dump(manifest, open(sys.argv[1], "w"))
PY
expect_refusal pareto ./build/example_run_report dir=out/ci_bad_pareto

echo
echo "=== [1e] perfbench layer replay: traced fleet-churn must match run_model ==="
# The traced benchmark run replays FleetOrchestrator::run_model layer by
# layer and compares its report bit for bit with run_model's. A run_model
# change the replay no longer reproduces reports "correct": false. The
# gate reads only the result line, never a timing.
perfbench_result=$(python3 perfbench/run.py --workload fleet-churn \
  --seconds 2 --trace 1 | tail -n 1)
echo "$perfbench_result"
python3 - "$perfbench_result" <<'PY'
import json, sys
result = json.loads(sys.argv[1])
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("ci.sh: perfbench fleet-churn: correct=%s failed=%s"
             % (result.get("correct"), result.get("failed")))
PY

echo
echo "=== [2/2] sanitizer gate: ASan/UBSan Debug build ==="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DGREENNFV_SANITIZE=ON \
  -DGREENNFV_BUILD_TESTS=ON \
  -DGREENNFV_BUILD_BENCH=OFF \
  -DGREENNFV_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$JOBS"

# The threaded data path and the event engine's pooled allocators are the
# sanitizer-critical surfaces; run their suites explicitly (pattern match
# keeps this in sync as suites are added), then the rest of the tree.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
(cd build-asan && ctest --output-on-failure --no-tests=error -j "$JOBS" -R '^nfvsim\.')
(cd build-asan && ctest --output-on-failure --no-tests=error -j "$JOBS" \
  -R '^common\.(Arena|ArenaAllocator|BucketQueue|EventHeap)\.|^orchestrator\.(FleetGolden|FleetDeterminism|FleetFault|FleetTopology|FleetWakeRegression|FleetSeriesTest|FleetPolicyOracle)\.|^topology\.|^telemetry\.')
(cd build-asan && ctest --output-on-failure --no-tests=error -j "$JOBS" \
  -E '^nfvsim\.|^common\.(Arena|ArenaAllocator|BucketQueue|EventHeap)\.|^orchestrator\.(FleetGolden|FleetDeterminism|FleetFault|FleetTopology|FleetWakeRegression|FleetSeriesTest|FleetPolicyOracle)\.|^topology\.|^telemetry\.')

echo
echo "ci.sh: all green"
