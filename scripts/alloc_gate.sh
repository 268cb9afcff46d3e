#!/usr/bin/env bash
# alloc_gate.sh — allocation-volume gate for injection runs and for the
# analysis path.
#
# Runs five of the repository benchmark's workloads for two seconds each and
# fails when alloc_kb_per_op or allocs_per_op — the two end-to-end metrics
# that repeat to 0.5 % between runs — exceed their ceilings, so the gate
# trips on a lost optimisation, not on a Go patch release. (campaign's and
# dist's bytes vary most, 0.4 %: their two workers' clusters share the
# spares, so which records a run finds there, and how large, depends on how
# the workers interleave; every other metric repeats to 0.05 %.)
#
#   campaign, dist, evaluation, predict — 1 % over the medians measured
#     once SiteIDs became process-wide and a node's maps, the PC cache and
#     the SiteID-indexed arrays rode the spare too: campaign 2 076 KB /
#     57 790 mallocs per op, dist 2 183 / 59 190, evaluation 1 790.6 /
#     11 194, predict 1 390.1 / 3 260. Every ceiling is below the value
#     before that change (campaign 2 856 / 62 523, dist 2 955 / 63 920,
#     evaluation 2 027 / 12 622, predict 1 431.6 / 3 513), those were below
#     the values before runs also handed on their scheduler arrays
#     (campaign 3 071 / 63 353, dist 3 172 / 64 747, evaluation 2 068 /
#     12 866, predict 1 439.6 / 3 558), and those below the values before
#     runs handed their thread and call records, node queue arrays and rng
#     on (campaign 8 776 / 89 057, dist 8 890 / 90 482, evaluation 2 966 /
#     16 123, predict 1 595 / 4 087).
#     dist runs the same campaign runs through the coordinator, so its
#     counts are campaign's plus the wire's.
#   offline — trace decode and index build: the decoder's byte window, chunk
#     arenas, one string per table section, pooled gzip state and the
#     two-pass index; 1 % over the median remeasured with the others
#     (585.3 KB / 954.7 mallocs per op; 589.7 / 964.1 when saved traces
#     became stored blocks instead of deflated); the ceiling is below the
#     deflated value (604.3 KB / 1 549.6).
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
gate campaign   2097  58368  || fail=1
gate dist       2205  59782  || fail=1
gate evaluation 1809  11306  || fail=1
gate offline    591   964    || fail=1
gate predict    1404  3293   || fail=1
[ "$fail" -eq 0 ] || { echo "alloc-gate: FAIL" >&2; exit 1; }
echo "alloc-gate: ok"
