#!/usr/bin/env bash
# alloc_gate.sh — allocation-volume gate for injection runs.
#
# Runs the repository benchmark's `campaign` and `evaluation` workloads for
# two seconds each and fails when alloc_kb_per_op or allocs_per_op — the two
# end-to-end metrics that repeat to 0.02 % between runs — exceed their
# ceilings. A ceiling is 3 % over the value recorded when the discard window
# and the owned control-taint sets landed (campaign 19 889 KB / 387 520
# mallocs per op, evaluation 7 892 KB / 132 300; see EXPERIMENTS.md), so the
# gate trips on a lost optimisation, not on a Go patch release. After a
# deliberate change, re-measure and move the ceiling with it.
#
# Usage: scripts/alloc_gate.sh
set -euo pipefail

# gate <workload> <alloc_kb_per_op ceiling> <allocs_per_op ceiling>
gate() {
  # The benchmark's last line is one JSON object carrying every metric.
  go run ./bench -workload "$1" -seconds 2 | tail -n 1 | python3 -c '
import json, sys
wl, ceilings = sys.argv[1], dict(alloc_kb_per_op=float(sys.argv[2]), allocs_per_op=float(sys.argv[3]))
last = json.load(sys.stdin)
ok = last["failed"] == 0
if not ok:
    print("alloc-gate: %s: %d of %d ops failed" % (wl, last["failed"], last["attempted"]))
for name, ceiling in ceilings.items():
    v = last["metrics"][name]["value"]
    ok = ok and v <= ceiling
    print("alloc-gate: %-10s %-16s %12.1f  ceiling %10.0f  %s" % (wl, name, v, ceiling, "ok" if v <= ceiling else "OVER"))
sys.exit(0 if ok else 1)' "$@"
}

fail=0
gate campaign   20486 399146 || fail=1
gate evaluation 8128  136269 || fail=1
[ "$fail" -eq 0 ] || { echo "alloc-gate: FAIL" >&2; exit 1; }
echo "alloc-gate: ok"
