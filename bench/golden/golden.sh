#!/usr/bin/env bash
# Golden outputs of the virtual clock. Every figure, ablation and
# deterministic tool output is pinned byte for byte by one file in this
# directory; the table below names each file and the command that makes it.
#
#   bench/golden/golden.sh list                      every golden's name
#   bench/golden/golden.sh check BUILD_DIR NAME      run one, diff it against its file
#   bench/golden/golden.sh regen BUILD_DIR [NAME...] rewrite the files (all by default)
#
# ctest runs `check` for every name as its own test under the label `golden`
# (`ctest -L golden`); a mismatch fails the test and prints the diff. A change
# that moves a golden regenerates it and names the file and the reason in
# CHANGES.md.
set -euo pipefail

golden_dir="$(cd "$(dirname "$0")" && pwd)"
# The goldens are the full-size runs, whatever the caller's environment asks.
unset DVM_FIG6_PERCENT

# name|command, run from the build directory; the golden is its stdout.
GOLDENS=(
  "bench_fig5_apps.txt|bench/bench_fig5_apps"
  "bench_fig6_endtoend.txt|bench/bench_fig6_endtoend"
  "bench_fig7_clientverify.txt|bench/bench_fig7_clientverify"
  "bench_fig8_checkcounts.txt|bench/bench_fig8_checkcounts"
  "bench_fig9_security.txt|bench/bench_fig9_security"
  "bench_fig10_scaling.txt|bench/bench_fig10_scaling"
  "bench_fig11_startup.txt|bench/bench_fig11_startup"
  "bench_fig12_repartition.txt|bench/bench_fig12_repartition"
  "bench_ablation_cache.txt|bench/bench_ablation_cache"
  "bench_ablation_granularity.txt|bench/bench_ablation_granularity"
  "bench_ablation_pipeline.txt|bench/bench_ablation_pipeline"
  "bench_ablation_reflection.txt|bench/bench_ablation_reflection"
  "bench_ablation_replication.txt|bench/bench_ablation_replication"
  "bench_ablation_syncelide.txt|bench/bench_ablation_syncelide"
  "bench_applet_latency.txt|bench/bench_applet_latency"
  "bench_availability.txt|bench/bench_availability"
  "bench_verify.txt|bench/bench_verify --check --dump-certs"
  "bench_replication.txt|bench/bench_replication --check"
  "bench_flashcrowd.txt|bench/bench_flashcrowd --clients=20000"
  "dvm_trace.json|tools/dvm_trace --workload=fig6 --seed=7 --out=-"
  "dvm_trace.metrics.txt|tools/dvm_trace --workload=fig6 --seed=7 --out=/dev/null --metrics=-"
  "dvm_top.txt|tools/dvm_top --seed=7"
)

usage() {
  sed -n 's/^#   //p' "$0" >&2
  exit 2
}

command_of() {
  local entry
  for entry in "${GOLDENS[@]}"; do
    if [[ "${entry%%|*}" == "$1" ]]; then
      echo "${entry#*|}"
      return 0
    fi
  done
  echo "golden.sh: no golden named '$1'" >&2
  return 1
}

# run BUILD_DIR NAME: writes the output of NAME's command to $actual; fails
# when the command does.
run() {
  local build_dir="$1" name="$2" cmd
  cmd="$(command_of "$name")"
  if ! (cd "$build_dir" && eval "./$cmd") >"$actual"; then
    echo "golden.sh: '$cmd' failed in $build_dir" >&2
    return 1
  fi
}

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT

[[ $# -ge 1 ]] || usage
case "$1" in
  list)
    for entry in "${GOLDENS[@]}"; do
      echo "${entry%%|*}"
    done
    ;;
  check)
    [[ $# -eq 3 ]] || usage
    build_dir="$2" name="$3"
    run "$build_dir" "$name"
    if ! diff -u --label "bench/golden/$name" --label "$name from $build_dir" \
        "$golden_dir/$name" "$actual"; then
      echo "golden.sh: $name differs from its golden. If the change means to move" \
           "it, run 'bench/golden/golden.sh regen $build_dir $name' and name the" \
           "file and the reason in CHANGES.md." >&2
      exit 1
    fi
    ;;
  regen)
    [[ $# -ge 2 ]] || usage
    build_dir="$2"
    shift 2
    names=("$@")
    if [[ ${#names[@]} -eq 0 ]]; then
      for entry in "${GOLDENS[@]}"; do
        names+=("${entry%%|*}")
      done
    fi
    for name in "${names[@]}"; do
      run "$build_dir" "$name"
      cp "$actual" "$golden_dir/$name"
      echo "wrote bench/golden/$name"
    done
    ;;
  *)
    usage
    ;;
esac
