#!/usr/bin/env bash
# alloc_gate.sh — allocation-volume gate for injection runs and for the
# analysis path.
#
# Runs five of the repository benchmark's workloads for two seconds each and
# fails when alloc_kb_per_op or allocs_per_op — the two end-to-end metrics
# that repeat to 0.02 % between runs — exceed their ceilings, so the gate
# trips on a lost optimisation, not on a Go patch release:
#
#   campaign, dist — 1 % over the medians measured once an RPC round trip
#     became one allocation (the call record holds its reply latch, up to
#     two arguments and its handler thread) and a node stopped making what
#     it does not use: campaign 9 004 KB / 116 207 mallocs per op, dist
#     9 112 KB / 117 581; each ceiling is below the value before that
#     change (campaign 9 533 KB / 150 433, dist 9 640 / 151 813). dist runs
#     the same campaign runs through the coordinator, so its counts are
#     campaign's plus the wire's. Running each leased plan through
#     campaign.ExecPlan now measures dist at 9 116 KB / 117 637; 1 % over
#     that would lie above the ceiling, so the ceiling stays.
#   evaluation — 1 % over the median measured once a trigger replay tracked
#     dependences on the report's read site only (a fold names its source
#     site and every other op hands back no taint): 2 999 KB / 19 918
#     mallocs per op; both ceilings are below the values before that change
#     (3 129 KB / 23 509).
#   predict — 1 % over the median measured after the same change:
#     1 599 KB / 4 656; the mallocs ceiling is below the value before it
#     (5 225). Its KB barely moves (1 598.3 before): a call record is one
#     704-byte object, which saves bytes on calls with one or two arguments
#     and costs a few on calls with none or more.
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
gate campaign   9094  117369 || fail=1
gate dist       9203  118757 || fail=1
gate evaluation 3030  20118  || fail=1
gate offline    596   974    || fail=1
gate predict    1615  4703   || fail=1
[ "$fail" -eq 0 ] || { echo "alloc-gate: FAIL" >&2; exit 1; }
echo "alloc-gate: ok"
