#!/usr/bin/env bash
# alloc_gate.sh — allocation-volume gate for injection runs and for the
# analysis path.
#
# Runs four of the repository benchmark's workloads for two seconds each and
# fails when alloc_kb_per_op or allocs_per_op — the two end-to-end metrics
# that repeat to 0.02 % between runs — exceed their ceilings, so the gate
# trips on a lost optimisation, not on a Go patch release:
#
#   campaign, predict — 1 % over the values measured once simulated threads
#     ran on pooled coroutine carriers and a campaign made one fault-free run
#     (campaign 18 613 KB / 373 423 mallocs per op, predict 1 680 KB /
#     8 408); each ceiling is below the value before that change (campaign
#     19 888 KB / 387 478, predict 1 706 KB / 8 669).
#   evaluation — 1 % over the median measured once trigger replays were hung
#     after 6x their workload's fault-free scheduler picks (6 097 KB /
#     89 519 mallocs per op); the ceiling is below the value under the clock
#     budget alone (7 451 KB / 127 211).
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
gate campaign   18799 377158 || fail=1
gate evaluation 6158  90414  || fail=1
gate offline    596   974    || fail=1
gate predict    1697  8492   || fail=1
[ "$fail" -eq 0 ] || { echo "alloc-gate: FAIL" >&2; exit 1; }
echo "alloc-gate: ok"
