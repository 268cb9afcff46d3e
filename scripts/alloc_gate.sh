#!/usr/bin/env bash
# alloc_gate.sh — allocation-volume gate for injection runs and for the
# analysis path.
#
# Runs five of the repository benchmark's workloads for two seconds each and
# fails when alloc_kb_per_op or allocs_per_op — the two end-to-end metrics
# that repeat to 0.02 % between runs — exceed their ceilings, so the gate
# trips on a lost optimisation, not on a Go patch release:
#
#   campaign, dist — 1 % over the medians measured once the simulator ended
#     quiescent runs (every non-daemon thread waiting on a latch with no
#     timeout while only daemons tick) at a fifth of their clock budget:
#     campaign 9 532 KB / 150 433 mallocs per op, dist 9 640 KB / 151 813;
#     each ceiling is below the value before that change (campaign
#     9 770 KB / 174 200, dist 9 878 / 175 578). dist runs the same campaign
#     runs through the coordinator, so its counts are campaign's plus the
#     wire's.
#   evaluation — 1 % over the median measured once RPC handlers serving a
#     daemon stopped holding off quiescence, timed waits counted as waiting
#     under the stall rule, and trigger replays took the observation's
#     fault-free picks instead of re-running it: 3 151 KB / 26 544 mallocs
#     per op; both ceilings are below the values before that change
#     (3 594 KB / 31 485).
#   predict — 1 % over the median measured once runs that keep no trace
#     stopped building what only a trace reads (folds take simulator facts,
#     dependence-free folds number no ops and merge no taint, heap and cond
#     names are built at the first kept emit): 1 602 KB / 5 232; the ceiling
#     is below the value before that change (1 604 / 5 243). The quiescence
#     rule leaves it unchanged: observations are never quiescent for long.
#   offline — trace decode and index build: the decoder's byte window, chunk
#     arenas, one string per table section, pooled gzip state and the
#     two-pass index; 1 % over the median measured once saved traces were
#     stored blocks instead of deflated (589.7 KB / 964.1 mallocs per op);
#     the ceiling is below the deflated value (604.3 KB / 1 549.6).
#
# See EXPERIMENTS.md. After a deliberate change, re-measure and move the
# ceiling with it.
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
gate campaign   9628  151938 || fail=1
gate dist       9737  153332 || fail=1
gate evaluation 3182  26809  || fail=1
gate offline    596   974    || fail=1
gate predict    1618  5284   || fail=1
[ "$fail" -eq 0 ] || { echo "alloc-gate: FAIL" >&2; exit 1; }
echo "alloc-gate: ok"
