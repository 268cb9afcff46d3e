#!/usr/bin/env bash
# explain_smoke.sh — pruning-attribution smoke test.
#
# Runs `fcatch detect -explain` on every benchmark workload and asserts the
# explain contract from the shipped binary: the per-rule kill table's counts
# sum to the candidate count (every candidate gets exactly one verdict), and
# the `pruned:` line reads the same tally — loop-timeout, wait-timeout,
# dependence = sanity-check + reset, impact.
#
# Usage: scripts/explain_smoke.sh <fcatch-binary>
set -euo pipefail

FCATCH=${1:?usage: explain_smoke.sh <fcatch-binary>}
WORKLOADS=${WORKLOADS:-"CA1&2 HB1 HB2 MR1 MR2 ZK"}

for wl in $WORKLOADS; do
  out=$("$FCATCH" detect -workload "$wl" -explain)
  # "Pruning attribution for <wl>: N candidate(s), K kept, M killed."
  candidates=$(sed -n 's/.*Pruning attribution for .*: \([0-9]*\) candidate(s).*/\1/p' <<<"$out")
  [ -n "$candidates" ] || {
    echo "explain-smoke: FAIL — $wl: no pruning-attribution header in output:" >&2
    echo "$out" >&2
    exit 1
  }
  # Sum the kill table's "Candidates" column (rule rows sit between the
  # table separator and the decision trail).
  sum=$(awk '/^Rule +Candidates/{t=1; next} t && /^-/{next}
             t && NF==2 && $2 ~ /^[0-9]+$/ {s+=$2; next} t{exit} END{print s+0}' <<<"$out")
  if [ "$sum" -ne "$candidates" ]; then
    echo "explain-smoke: FAIL — $wl: rule counts sum to $sum, header says $candidates candidates" >&2
    echo "$out" >&2
    exit 1
  fi
  rule() { awk -v r="$1" '/^Rule +Candidates/{t=1; next} t && $1 == r {print $2; exit}' <<<"$out"; }
  want="pruned: loop-timeout=$(rule loop-timeout) wait-timeout=$(rule wait-timeout)"
  want+=" dependence=$(($(rule sanity-check) + $(rule reset))) impact=$(rule impact)"
  pruned=$(grep '^pruned:' <<<"$out")
  if [ "$pruned" != "$want" ]; then
    echo "explain-smoke: FAIL — $wl: '$pruned' disagrees with the kill table ('$want')" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "explain-smoke: $wl OK ($candidates candidates, rule counts sum to $sum, $pruned)"
done
echo "explain-smoke: PASS"
