#!/usr/bin/env bash
# dist_smoke.sh — end-to-end distributed campaign smoke test.
#
# Starts `fcatch-campaign -serve` as a coordinator, attaches two external
# fcatch-worker processes, kills one of them mid-campaign, and asserts the
# merged corpus is byte-identical to a single-process Parallelism=1 run.
# Exercises the full wire protocol, lease reassignment after a worker death,
# and the deterministic merge — from the shipped binaries, not the test
# harness. Build with -race before calling for the CI configuration.
#
# The coordinator also runs with -metrics/-metrics-addr: the script scrapes
# the Prometheus endpoint while the campaign is live and asserts the end-of-run
# manifest counted at least one requeued lease for the SIGKILLed worker.
#
# A third leg interrupts a local campaign: SIGTERM after a second must exit
# 130 leaving a partial corpus of complete batches, and -resume of that file
# must reach the same bytes as the baseline — the drain path every campaign
# takes, here without workers.
#
# Usage: scripts/dist_smoke.sh <fcatch-campaign-binary> <fcatch-worker-binary>
set -euo pipefail

CAMPAIGN=${1:?usage: dist_smoke.sh <fcatch-campaign> <fcatch-worker>}
WORKER=${2:?usage: dist_smoke.sh <fcatch-campaign> <fcatch-worker>}
WORKLOAD=${WORKLOAD:-MR1}
RUNS=${RUNS:-600}
SEED=${SEED:-7}
ADDR=${ADDR:-127.0.0.1:9661}
METRICS_ADDR=${METRICS_ADDR:-127.0.0.1:9662}

dir=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$dir"' EXIT

echo "dist-smoke: baseline (single-process, parallelism=1)"
"$CAMPAIGN" -workload "$WORKLOAD" -strategy random -runs "$RUNS" -seed "$SEED" \
  -parallelism 1 -corpus "$dir/baseline.json" >/dev/null

echo "dist-smoke: coordinator on $ADDR (+ /metrics on $METRICS_ADDR) + 2 workers, one killed mid-campaign"
"$CAMPAIGN" -workload "$WORKLOAD" -strategy random -runs "$RUNS" -seed "$SEED" \
  -serve "$ADDR" -corpus "$dir/dist.json" \
  -metrics "$dir/coord-metrics.json" -metrics-addr "$METRICS_ADDR" \
  >/dev/null 2>"$dir/serve.log" &
serve_pid=$!

"$WORKER" -addr "$ADDR" -name smoke-1 >/dev/null 2>&1 &
w1_pid=$!
"$WORKER" -addr "$ADDR" -name smoke-2 >/dev/null 2>&1 &
w2_pid=$!

# Let the campaign get underway, then kill one worker mid-lease. The
# coordinator must reassign its outstanding lease to the survivor.
sleep 1
echo "dist-smoke: killing worker smoke-2 (pid $w2_pid)"
kill -9 "$w2_pid" 2>/dev/null || true

# Scrape the live Prometheus endpoint while the campaign still runs.
if command -v curl >/dev/null 2>&1; then
  if curl -fsS "http://$METRICS_ADDR/metrics" >"$dir/scrape.txt" 2>/dev/null; then
    grep -q '^fcatch_dist_workers_joined_total 2$' "$dir/scrape.txt" || {
      echo "dist-smoke: FAIL — live /metrics scrape missing fcatch_dist_workers_joined_total 2" >&2
      cat "$dir/scrape.txt" >&2
      exit 1
    }
    echo "dist-smoke: live /metrics scrape OK ($(wc -l <"$dir/scrape.txt") lines)"
  else
    echo "dist-smoke: note — campaign drained before the live scrape; relying on the manifest"
  fi
fi

if ! wait "$serve_pid"; then
  echo "dist-smoke: coordinator failed; log:" >&2
  cat "$dir/serve.log" >&2
  exit 1
fi
wait "$w1_pid" || true

cmp "$dir/baseline.json" "$dir/dist.json" || {
  echo "dist-smoke: FAIL — distributed corpus differs from single-process baseline" >&2
  exit 1
}
grep -q 'requeueing lease' "$dir/serve.log" \
  && echo "dist-smoke: lease reassignment observed"

# The SIGKILLed worker forfeited at least one outstanding lease, and the
# coordinator must have counted the requeue in its metrics manifest.
grep -Eq '"dist/leases/requeued": *[1-9]' "$dir/coord-metrics.json" || {
  echo "dist-smoke: FAIL — coordinator manifest shows no requeued lease after worker SIGKILL" >&2
  grep -E '"dist/' "$dir/coord-metrics.json" >&2 || cat "$dir/coord-metrics.json" >&2
  exit 1
}
echo "dist-smoke: requeue counter >= 1 after worker SIGKILL"

# -batch 10: a race-built binary commits a batch or two within the second (the
# random strategy's default is one batch of $RUNS, which would keep nothing).
echo "dist-smoke: local campaign, SIGTERM after 1s, then -resume"
"$CAMPAIGN" -workload "$WORKLOAD" -strategy random -runs "$RUNS" -seed "$SEED" \
  -batch 10 -corpus "$dir/partial.json" >/dev/null 2>"$dir/local.log" &
local_pid=$!
sleep 1
kill -TERM "$local_pid" 2>/dev/null || true
status=0
wait "$local_pid" || status=$?
if [ "$status" -eq 0 ]; then
  echo "dist-smoke: note — local campaign finished before the SIGTERM; resuming its complete corpus"
elif [ "$status" -ne 130 ] || ! grep -q 'saved partial corpus' "$dir/local.log"; then
  echo "dist-smoke: FAIL — interrupted local campaign exited $status, want 130 and a partial corpus; log:" >&2
  cat "$dir/local.log" >&2
  exit 1
else
  grep 'interrupted at' "$dir/local.log"
fi
"$CAMPAIGN" -resume "$dir/partial.json" -runs "$RUNS" -corpus "$dir/resumed.json" >/dev/null 2>&1
cmp "$dir/baseline.json" "$dir/resumed.json" || {
  echo "dist-smoke: FAIL — corpus resumed after a local interrupt differs from single-process baseline" >&2
  exit 1
}
echo "dist-smoke: PASS — distributed and interrupted-then-resumed corpora byte-identical to baseline"
