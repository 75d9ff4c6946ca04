#!/usr/bin/env bash
# ci_local.sh — reproduce the CI matrix (.github/workflows/ci.yml) on a
# dev box: same presets, same labels, same gates.  Green here means green
# in CI (modulo runner hardware for the perf/bench gates).
#
# usage: tools/ci_local.sh [--preset NAME]... [--skip-format] [--skip-bench]
#   --preset NAME   run only the named preset(s) (default, asan, tsan,
#                   noobs); may repeat.  Default: all four.
#   --skip-format   skip the clang-format check
#   --skip-bench    skip the bench smoke + regression gate
#   --soak          also run the 30 s telemetry scrape soak (CI runs it
#                   on the main / perf-labelled full lane only)
set -euo pipefail

cd "$(dirname "$0")/.."

presets=()
skip_format=0
skip_bench=0
soak=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --preset) presets+=("$2"); shift 2 ;;
    --skip-format) skip_format=1; shift ;;
    --skip-bench) skip_bench=1; shift ;;
    --soak) soak=1; shift ;;
    *) echo "ci_local.sh: unknown flag $1" >&2; exit 2 ;;
  esac
done
if [[ ${#presets[@]} -eq 0 ]]; then
  presets=(default asan tsan noobs)
fi

jobs="$(nproc)"
failed=()

run_step() {
  local name="$1"; shift
  echo
  echo "=== ${name} ==="
  if "$@"; then
    echo "=== ${name}: OK ==="
  else
    echo "=== ${name}: FAILED ==="
    failed+=("${name}")
  fi
}

# --- format job -----------------------------------------------------------
if [[ ${skip_format} -eq 0 ]]; then
  if command -v clang-format >/dev/null 2>&1; then
    check_format() {
      find src tests bench tools \( -name '*.cpp' -o -name '*.hpp' \) \
        -print0 | xargs -0 clang-format --dry-run -Werror
    }
    run_step "format (clang-format)" check_format
  else
    echo "format: clang-format not installed, skipping (CI will run it)"
  fi
fi

# --- build + test matrix --------------------------------------------------
launcher=()
if command -v ccache >/dev/null 2>&1; then
  launcher=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
for preset in "${presets[@]}"; do
  run_step "configure ${preset}" cmake --preset "${preset}" "${launcher[@]}"
  run_step "build ${preset}" cmake --build --preset "${preset}" -j "${jobs}"
  run_step "ctest ${preset}" ctest --preset "${preset}" -j "${jobs}"
done

# --- chaos-labelled suites under ASan -------------------------------------
if [[ " ${presets[*]} " == *" asan "* ]]; then
  run_step "chaos gate under asan (ctest --preset chaos-asan)" \
    ctest --preset chaos-asan -j "${jobs}"
  run_step "obs gate under asan (ctest --preset obs-asan)" \
    ctest --preset obs-asan -j "${jobs}"
fi

# --- stress- and perf-labelled gates (run alone: no -j) -------------------
if [[ " ${presets[*]} " == *" default "* ]]; then
  run_step "stress gate (ctest --preset stress)" ctest --preset stress
  run_step "perf gate (ctest --preset perf)" ctest --preset perf
fi

# --- engine determinism gate ----------------------------------------------
# Same grid at 1 thread, 8 threads, and with the per-tick fallback engine:
# BenchReport metrics must be bit-identical (DESIGN.md section 13).
if [[ ${skip_bench} -eq 0 && " ${presets[*]} " == *" default "* ]]; then
  determinism_gate() {
    local out=/tmp/det_out
    mkdir -p "${out}"
    ./build/bench/fig4_model_vs_measured --short --threads 1 \
      --bench-json "${out}/t1.json" &&
      ./build/bench/fig4_model_vs_measured --short --threads 8 \
        --bench-json "${out}/t8.json" &&
      PROCAP_SIM_ENGINE=pertick ./build/bench/fig4_model_vs_measured \
        --short --threads 8 --bench-json "${out}/pertick.json" &&
      python3 tools/check_determinism.py \
        "${out}/t1.json" "${out}/t8.json" "${out}/pertick.json" &&
      ./build/bench/policy_shootout --short --threads 1 \
        --bench-json "${out}/shootout_t1.json" &&
      ./build/bench/policy_shootout --short --threads 8 \
        --bench-json "${out}/shootout_t8.json" &&
      PROCAP_SIM_ENGINE=pertick ./build/bench/policy_shootout \
        --short --threads 8 --bench-json "${out}/shootout_pertick.json" &&
      python3 tools/check_determinism.py \
        "${out}/shootout_t1.json" "${out}/shootout_t8.json" \
        "${out}/shootout_pertick.json" &&
      ./build/tools/cluster_sim --nodes 96 --epochs 40 --seed 7 \
        --threads 1 --quiet --trace-out "${out}/traces_t1.json" &&
      ./build/tools/cluster_sim --nodes 96 --epochs 40 --seed 7 \
        --threads 8 --quiet --trace-out "${out}/traces_t8.json" &&
      python3 tools/check_determinism.py --traces \
        "${out}/traces_t1.json" "${out}/traces_t8.json" &&
      ./build/tools/cluster_sim --nodes 96 --epochs 40 --seed 7 \
        --controller target:setpoint=60 --threads 1 --quiet \
        --trace-out "${out}/traces_ctrl_t1.json" &&
      ./build/tools/cluster_sim --nodes 96 --epochs 40 --seed 7 \
        --controller target:setpoint=60 --threads 8 --quiet \
        --trace-out "${out}/traces_ctrl_t8.json" &&
      python3 tools/check_determinism.py --traces \
        "${out}/traces_ctrl_t1.json" "${out}/traces_ctrl_t8.json"
  }
  run_step "determinism gate (threads x batched/per-tick)" determinism_gate
fi

# --- bench smoke + regression gate ----------------------------------------
if [[ ${skip_bench} -eq 0 && " ${presets[*]} " == *" default "* ]]; then
  bench_gate() {
    local out=/tmp/bench_out
    mkdir -p "${out}"
    ./build/bench/fig4_model_vs_measured --short --threads 8 \
      --bench-json "${out}/BENCH_fig4.json" &&
      ./build/bench/tbl6_beta_mpo --short --threads 8 \
        --bench-json "${out}/BENCH_tbl6_beta_mpo.json" &&
      ./build/bench/abl_alpha_sensitivity --short --threads 8 \
        --bench-json "${out}/BENCH_abl_alpha_sensitivity.json" &&
      ./build/bench/abl_cap_tracking --short --threads 8 \
        --bench-json "${out}/BENCH_abl_cap_tracking.json" &&
      ./build/bench/abl_job_variability --short --threads 8 \
        --bench-json "${out}/BENCH_abl_job_variability.json" &&
      ./build/bench/policy_shootout --short --threads 8 \
        --bench-json "${out}/BENCH_policy_shootout.json" &&
      ./build/bench/cluster_churn --short --threads 8 \
        --bench-json "${out}/BENCH_cluster_churn.json" &&
      ./build/bench/obs_load --short \
        --bench-json "${out}/BENCH_obs_load.json" &&
      ./build/bench/trace_pipeline --short \
        --bench-json "${out}/BENCH_trace_pipeline.json" &&
      python3 tools/check_bench.py "${out}" bench/baselines \
        --max-regression 15
  }
  run_step "bench gate (short grid vs baselines)" bench_gate
fi

# --- telemetry scrape soak (opt-in; CI: main / perf-labelled lane) --------
if [[ ${soak} -eq 1 ]]; then
  run_step "telemetry scrape soak (8 scrapers, 30 s)" \
    python3 tools/cluster_live_smoke.py \
    build/tools/cluster_sim build/tools/procap_top --soak
fi

echo
if [[ ${#failed[@]} -gt 0 ]]; then
  echo "ci_local: ${#failed[@]} step(s) FAILED:"
  printf '  - %s\n' "${failed[@]}"
  exit 1
fi
echo "ci_local: all steps green"
