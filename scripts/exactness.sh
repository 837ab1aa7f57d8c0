#!/usr/bin/env bash
# Exactness probe for a change claimed bit-identical: runs the benchmark
# (benchmark/run.sh, default 20 s, where choice_quality depends on the
# seed) for cold_dense at seeds 1, 2, 3 and 1802, for mixed_open at seed
# 1802 and for churn_durable (the sparse family) at seed 1802, and prints
# one line per run with its choice_quality and the decision_hash of its
# rounds (read from the round files while the run is alive; the
# benchmark deletes them when it ends).
#
# Run it in two checkouts and diff the outputs -- every line must match:
#
#   bash scripts/exactness.sh > after.txt
#   diff before.txt after.txt
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/benchmark/out"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

for run in "cold_dense 1" "cold_dense 2" "cold_dense 3" "cold_dense 1802" "mixed_open 1802" "churn_durable 1802"; do
  read -r workload seed <<<"$run"
  bash "$root/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds 20 >"$log" 2>&1 &
  pid=$!
  hashes=""
  while kill -0 "$pid" 2>/dev/null; do
    seen="$(cat "$out"/run-"$workload"-"$seed"-*/round-*.txt 2>/dev/null |
      awk '$1 == "decision_hash" { print $2 }' | sort -u | paste -sd, -)" || true
    [[ -n "$seen" ]] && hashes="$seen"
    sleep 0.2
  done
  if ! wait "$pid"; then
    cat "$log" >&2
    exit 1
  fi
  quality="$(sed -n 's/.*"choice_quality": {"value": \([^,]*\),.*/\1/p' "$log")"
  echo "$workload seed $seed choice_quality $quality decision_hash ${hashes:-unseen}"
done
