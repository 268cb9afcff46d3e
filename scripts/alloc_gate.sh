#!/usr/bin/env bash
# alloc_gate.sh — allocation-volume gate for injection runs and for the
# analysis path.
#
# Runs five of the repository benchmark's workloads for two seconds each and
# fails when alloc_kb_per_op or allocs_per_op — the two end-to-end metrics
# that repeat to 0.02 % between runs — exceed their ceilings, so the gate
# trips on a lost optimisation, not on a Go patch release:
#
#   campaign, dist, evaluation, predict — 1 % over the medians measured
#     once a simulated key was copied only when its slot is made (heap
#     fields, named objects and conds, and storage names look a caller's key
#     up as given, so a key an app builds on every op stays on its stack):
#     campaign 8 805 KB / 90 362 mallocs per op, dist 8 918 / 91 790,
#     evaluation 2 969 / 16 294, predict 1 594 / 4 100. Every ceiling is
#     below the value before that change (campaign 9 004 / 116 207, dist
#     9 116 / 117 637, evaluation 2 999 / 19 918, predict 1 599 / 4 646).
#     dist runs the same campaign runs through the coordinator, so its
#     counts are campaign's plus the wire's.
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
gate campaign   8893  91266  || fail=1
gate dist       9007  92708  || fail=1
gate evaluation 2998  16457  || fail=1
gate offline    596   974    || fail=1
gate predict    1610  4141   || fail=1
[ "$fail" -eq 0 ] || { echo "alloc-gate: FAIL" >&2; exit 1; }
echo "alloc-gate: ok"
