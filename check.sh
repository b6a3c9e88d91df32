#!/usr/bin/env bash
# One-stop local gate: build, full test suite, formatting, and an
# examples smoke run.  CI and pre-commit both call this.
set -euo pipefail
cd "$(dirname "$0")"

dune build
dune runtest
dune build @fmt
dune exec examples/quickstart.exe > /dev/null

# API docs, when odoc is installed (it is optional in the dev image).
if command -v odoc > /dev/null 2>&1; then
  dune build @doc
else
  echo "check.sh: odoc not found, skipping dune build @doc"
fi

# Trace round trip: record a seeded run and fold the stream back.
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
dune exec bin/rbb_cli.exe -- simulate --bins 64 --rounds 100 --init pile \
  --trace-ndjson "$tracedir/trace.ndjson" --chrome-trace "$tracedir/chrome.json" > /dev/null
dune exec bin/rbb_cli.exe -- trace-report "$tracedir/trace.ndjson" --no-plot \
  | grep -q 'observable rounds : 100' \
  || { echo "check.sh: trace round trip failed"; exit 1; }
grep -q '"traceEvents"' "$tracedir/chrome.json" \
  || { echo "check.sh: chrome trace missing"; exit 1; }

# Crash-resume smoke: kill a checkpointing run mid-flight (SIGKILL, so
# nothing gets to clean up), resume from the last published snapshot,
# and demand the final checkpoint is byte-identical to a run that never
# crashed.  Atomic publication means the snapshot is whole even though
# the writer died.
rbb="_build/default/bin/rbb_cli.exe"
"$rbb" simulate --bins 512 --rounds 1000000 --seed 7 \
  --checkpoint "$tracedir/live.ckpt" --checkpoint-every 25 > /dev/null &
pid=$!
for _ in $(seq 1 400); do
  [ -s "$tracedir/live.ckpt" ] && break
  sleep 0.05
done
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true
[ -s "$tracedir/live.ckpt" ] \
  || { echo "check.sh: no checkpoint published before the kill"; exit 1; }
at=$(grep -o '"round":[0-9]*' "$tracedir/live.ckpt" | head -1 | cut -d: -f2)
total=$((at + 50))
"$rbb" simulate --rounds "$total" --resume-from "$tracedir/live.ckpt" \
  --checkpoint "$tracedir/resumed.ckpt" > /dev/null
"$rbb" simulate --bins 512 --rounds "$total" --seed 7 \
  --checkpoint "$tracedir/clean.ckpt" > /dev/null
cmp -s "$tracedir/resumed.ckpt" "$tracedir/clean.ckpt" \
  || { echo "check.sh: crash-resume diverged from the uninterrupted run"; exit 1; }

# Supervisor-retry smoke: inject a fault into the sharded engine, check
# the supervisor retried it, and that the final state still equals the
# unfaulted sequential run's.
"$rbb" simulate --bins 512 --rounds 60 --seed 7 --shards 4 --domains 2 \
  --failpoint 'sharded.settle@round=30,fails=1' \
  --telemetry-json "$tracedir/fault.json" > /dev/null
grep -q '"sharded.retries"' "$tracedir/fault.json" \
  || { echo "check.sh: injected fault was not retried"; exit 1; }
"$rbb" simulate --bins 512 --rounds 60 --seed 7 --shards 4 --domains 2 \
  --failpoint 'sharded.settle@round=30,fails=1' \
  --checkpoint "$tracedir/fault.ckpt" > /dev/null
"$rbb" simulate --bins 512 --rounds 60 --seed 7 \
  --checkpoint "$tracedir/clean60.ckpt" > /dev/null
cmp -s "$tracedir/fault.ckpt" "$tracedir/clean60.ckpt" \
  || { echo "check.sh: fault-injected trajectory diverged"; exit 1; }
# Single-worker degrade gate: a fault that exhausts the retry budget on
# the default one-worker geometry degrades and finishes the run instead
# of crashing, on the same trajectory as the clean run.
"$rbb" simulate --bins 512 --rounds 60 --seed 7 \
  --failpoint 'sharded.settle@round=30,fails=99' \
  --checkpoint "$tracedir/degraded.ckpt" > /dev/null \
  || { echo "check.sh: single-worker run did not degrade"; exit 1; }
cmp -s "$tracedir/degraded.ckpt" "$tracedir/clean60.ckpt" \
  || { echo "check.sh: degraded trajectory diverged"; exit 1; }

# Counts-vs-balls smoke: the count-based kernel must run from the CLI,
# stay bit-identical between its sequential and sharded variants
# (checkpoint bytes), resume as the counts engine from its own
# checkpoint, and land in the same legitimate band as the per-ball
# oracle from the same start (the distributional gate proper lives in
# test/test_distributional.ml).
"$rbb" simulate --bins 4096 --rounds 200 --seed 7 --engine counts \
  --checkpoint "$tracedir/counts_seq.ckpt" > "$tracedir/counts.out"
"$rbb" simulate --bins 4096 --rounds 200 --seed 7 --engine counts --domains 2 \
  --checkpoint "$tracedir/counts_par.ckpt" > /dev/null
cmp -s "$tracedir/counts_seq.ckpt" "$tracedir/counts_par.ckpt" \
  || { echo "check.sh: sequential and sharded counts engines diverged"; exit 1; }
grep -q '"engine_kind":"counts"' "$tracedir/counts_seq.ckpt" \
  || { echo "check.sh: counts checkpoint not tagged with its engine kind"; exit 1; }
"$rbb" simulate --rounds 250 --resume-from "$tracedir/counts_seq.ckpt" \
  | grep -q 'engine=counts' \
  || { echo "check.sh: counts resume did not restore the counts engine"; exit 1; }
"$rbb" simulate --bins 4096 --rounds 200 --seed 7 > "$tracedir/balls.out"
counts_max=$(grep 'running max load' "$tracedir/counts.out" | grep -o '[0-9]*$')
balls_max=$(grep 'running max load' "$tracedir/balls.out" | grep -o '[0-9]*$')
threshold=$(grep -o 'legitimacy threshold   : [0-9]*' "$tracedir/counts.out" | grep -o '[0-9]*$')
[ "$counts_max" -le "$threshold" ] && [ "$balls_max" -le "$threshold" ] \
  || { echo "check.sh: an engine left the legitimate band (counts $counts_max, balls $balls_max, threshold $threshold)"; exit 1; }

# Checkpoints of more than one loads record: pinned bytes (cksum) for
# runs whose loads span two full 4096-bin records and a short tail —
# counts with its telemetry counter records, per-ball, and m != n with
# multi-digit loads on both engines (the per-ball one also at two
# domains) — and a counts resume from round 30 that must match the
# uninterrupted 60-round file.
pinned_sum() {
  got=$(cksum < "$tracedir/$1")
  [ "$got" = "$2" ] \
    || { echo "check.sh: $1 bytes changed (cksum $got, pinned $2)"; exit 1; }
}
"$rbb" simulate --bins 10000 --rounds 60 --seed 7 --engine counts \
  --telemetry-json "$tracedir/multi.json" --checkpoint "$tracedir/multi_counts.ckpt" > /dev/null
pinned_sum multi_counts.ckpt "525936404 20628"
"$rbb" simulate --bins 10000 --rounds 60 --seed 7 \
  --checkpoint "$tracedir/multi_balls.ckpt" > /dev/null
pinned_sum multi_balls.ckpt "166941964 20490"
"$rbb" simulate --bins 9000 --balls 36000 --rounds 30 --seed 7 --engine counts \
  --checkpoint "$tracedir/multi_mn.ckpt" > /dev/null
pinned_sum multi_mn.ckpt "1006085219 19230"
"$rbb" simulate --bins 9000 --balls 36000 --rounds 30 --seed 7 \
  --checkpoint "$tracedir/multi_mn_balls.ckpt" > /dev/null
pinned_sum multi_mn_balls.ckpt "2575639544 19195"
"$rbb" simulate --bins 9000 --balls 36000 --rounds 30 --seed 7 --domains 2 \
  --checkpoint "$tracedir/multi_mn_balls_d2.ckpt" > /dev/null
cmp -s "$tracedir/multi_mn_balls.ckpt" "$tracedir/multi_mn_balls_d2.ckpt" \
  || { echo "check.sh: per-ball m != n run diverged at two domains"; exit 1; }
"$rbb" simulate --bins 10000 --rounds 30 --seed 7 --engine counts \
  --checkpoint "$tracedir/multi_30.ckpt" > /dev/null
"$rbb" simulate --rounds 60 --resume-from "$tracedir/multi_30.ckpt" \
  --checkpoint "$tracedir/multi_resumed.ckpt" > /dev/null
"$rbb" simulate --bins 10000 --rounds 60 --seed 7 --engine counts \
  --checkpoint "$tracedir/multi_60.ckpt" > /dev/null
cmp -s "$tracedir/multi_resumed.ckpt" "$tracedir/multi_60.ckpt" \
  || { echo "check.sh: multi-record counts resume diverged from the uninterrupted run"; exit 1; }

# m != n smoke: both engines at m = 4n, a checkpoint/resume byte
# comparison at m != n, and a recover run whose m-aware threshold makes
# relegitimization reachable (the old n-only threshold sat below the
# m/n conservation floor, so no m >> n episode could ever succeed).
"$rbb" simulate --bins 512 --balls 2048 --rounds 200 --seed 7 > "$tracedir/mn_balls.out"
grep -q 'm=2048' "$tracedir/mn_balls.out" \
  || { echo "check.sh: m != n run did not report its ball count"; exit 1; }
"$rbb" simulate --bins 512 --balls 2048 --rounds 200 --seed 7 --engine counts \
  --checkpoint "$tracedir/mn.ckpt" > /dev/null
grep -q '"balls":2048' "$tracedir/mn.ckpt" \
  || { echo "check.sh: checkpoint dropped the m != n ball count"; exit 1; }
"$rbb" simulate --rounds 260 --resume-from "$tracedir/mn.ckpt" \
  --checkpoint "$tracedir/mn_resumed.ckpt" > /dev/null
"$rbb" simulate --bins 512 --balls 2048 --rounds 260 --seed 7 --engine counts \
  --checkpoint "$tracedir/mn_clean.ckpt" > /dev/null
cmp -s "$tracedir/mn_resumed.ckpt" "$tracedir/mn_clean.ckpt" \
  || { echo "check.sh: m != n resume diverged from the uninterrupted run"; exit 1; }
"$rbb" recover --bins 16 --balls 256 --episodes 1 --action pile \
  | grep -q 'relegitimized' \
  || { echo "check.sh: m >> n recovery never relegitimized"; exit 1; }

# Serve smoke: start the daemon, submit a checkpointing job, SIGKILL
# the daemon mid-job, restart it against the same state directory
# (stale-lock takeover + resume), and demand the recovered result is
# byte-identical to one from a daemon that never crashed.
servedir="$tracedir/serve"
mkdir -p "$servedir"
"$rbb" serve --socket "$tracedir/a.sock" --state-dir "$servedir/a" \
  --checkpoint-every 50 > "$servedir/a1.log" 2>&1 &
pid=$!
sleep 0.2
"$rbb" submit --socket "$tracedir/a.sock" --bins 256 --rounds 60000 --seed 7 \
  --init pile > /dev/null
for _ in $(seq 1 400); do
  [ -s "$servedir/a/job-000001.ckpt" ] && break
  sleep 0.05
done
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true
[ -s "$servedir/a/job-000001.ckpt" ] \
  || { echo "check.sh: no job checkpoint published before the kill"; exit 1; }
[ ! -e "$servedir/a/job-000001.result" ] \
  || { echo "check.sh: job finished before the kill; raise --rounds"; exit 1; }
"$rbb" serve --socket "$tracedir/a.sock" --state-dir "$servedir/a" \
  --checkpoint-every 50 > "$servedir/a.log" 2>&1 &
pid=$!
"$rbb" submit --socket "$tracedir/a.sock" --result job-000001 > "$servedir/resumed.txt"
# A finished job is answered from its result file, not from memory.
[ "$("$rbb" submit --socket "$tracedir/a.sock" --status job-000001)" \
  = "job-000001 done round=60000" ] \
  || { echo "check.sh: finished job's status is not done round=60000"; exit 1; }
"$rbb" submit --socket "$tracedir/a.sock" --shutdown > /dev/null
wait "$pid"
grep -q 'resumed 1 pending job' "$servedir/a.log" \
  || { echo "check.sh: restarted daemon did not resume the orphaned job"; exit 1; }
grep -qF 'shutdown (1 job(s) completed this run)' "$servedir/a.log" \
  || { echo "check.sh: restarted daemon's shutdown line miscounts its jobs"; exit 1; }
"$rbb" serve --socket "$tracedir/b.sock" --state-dir "$servedir/b" \
  --checkpoint-every 50 > /dev/null 2>&1 &
pid=$!
"$rbb" submit --socket "$tracedir/b.sock" --bins 256 --rounds 60000 --seed 7 \
  --init pile --wait | tail -1 > "$servedir/solid.txt"
"$rbb" submit --socket "$tracedir/b.sock" --shutdown > /dev/null
wait "$pid"
cmp -s "$servedir/resumed.txt" "$servedir/solid.txt" \
  || { echo "check.sh: daemon crash-resume result diverged from the uninterrupted run"; exit 1; }

# Observability smoke: one job through a fresh daemon, then scrape the
# Prometheus exposition over the socket and check the published
# metrics.prom parses, the job sojourn histogram counted the job, and
# the stats reply's sojourn mean is the scraped sum over the count.
"$rbb" serve --socket "$tracedir/m.sock" --state-dir "$servedir/m" > /dev/null 2>&1 &
pid=$!
sleep 0.2
"$rbb" submit --socket "$tracedir/m.sock" --bins 64 --rounds 500 --seed 9 \
  --wait > /dev/null
# The result file can be visible before the worker's accounting (see
# the settle loop in Slam.run), and the job is counted just before its
# latencies are recorded: poll until the stats reply shows both.
for _ in $(seq 1 100); do
  "$rbb" submit --socket "$tracedir/m.sock" --stats > "$servedir/mstats.json"
  grep -q '"completed":1[,}]' "$servedir/mstats.json" \
    && grep -q '"sojourn_mean_s"' "$servedir/mstats.json" && break
  sleep 0.05
done
"$rbb" submit --socket "$tracedir/m.sock" --metrics > "$servedir/scrape.txt"
"$rbb" submit --socket "$tracedir/m.sock" --shutdown > /dev/null
wait "$pid"
grep -q '^rbb_jobs_completed_total 1$' "$servedir/scrape.txt" \
  || { echo "check.sh: scraped exposition missing the completed-jobs counter"; exit 1; }
[ -s "$servedir/m/metrics.prom" ] \
  || { echo "check.sh: daemon never published metrics.prom"; exit 1; }
# Every line must be a comment or "name[{labels}] value" — i.e. the file
# parses as Prometheus text format v0.0.4.
if grep -vE '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+)$' \
    "$servedir/m/metrics.prom" | grep -q .; then
  echo "check.sh: metrics.prom has unparseable lines"; exit 1
fi
sojourns=$(grep -o 'rbb_job_sojourn_seconds_count{outcome="ok"} [0-9]*' \
  "$servedir/m/metrics.prom" | grep -o '[0-9]*$')
[ -n "$sojourns" ] && [ "$sojourns" -ge 1 ] \
  || { echo "check.sh: job sojourn histogram counted ${sojourns:-nothing}"; exit 1; }
mean_s=$(grep -o '"sojourn_mean_s":[^,}]*' "$servedir/mstats.json" \
  | cut -d: -f2 || true)
sum_s=$(grep -o '^rbb_job_sojourn_seconds_sum{outcome="ok"} .*' \
  "$servedir/scrape.txt" | cut -d' ' -f2 || true)
count=$(grep -o '^rbb_job_sojourn_seconds_count{outcome="ok"} .*' \
  "$servedir/scrape.txt" | cut -d' ' -f2 || true)
awk -v m="${mean_s:-x}" -v s="${sum_s:-x}" -v c="${count:-0}" 'BEGIN {
  if (m == "x" || s == "x" || c + 0 < 1) exit 1
  d = m - s / c; if (d < 0) d = -d
  exit !(d <= 1e-6 * s / c) }' \
  || { echo "check.sh: stats sojourn_mean_s ${mean_s:-missing} != scraped sum/count ${sum_s:-missing}/${count:-missing}"; exit 1; }

# Chaos smoke, directed half: SIGKILL a daemon mid-job, corrupt the
# surviving checkpoint in place, and restart with a probabilistic fsync
# fault injected into the storage shim.  The poison must land in
# quarantine/ (never deleted), the job must restart from its durable
# spec, and the recovered result must still be byte-identical to the
# uninterrupted daemon's.
"$rbb" serve --socket "$tracedir/c.sock" --state-dir "$servedir/c" \
  --checkpoint-every 50 > /dev/null 2>&1 &
pid=$!
sleep 0.2
"$rbb" submit --socket "$tracedir/c.sock" --bins 256 --rounds 60000 --seed 7 \
  --init pile > /dev/null
for _ in $(seq 1 400); do
  [ -s "$servedir/c/job-000001.ckpt" ] && break
  sleep 0.05
done
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true
[ -s "$servedir/c/job-000001.ckpt" ] \
  || { echo "check.sh: no checkpoint survived to corrupt"; exit 1; }
printf 'XX' | dd of="$servedir/c/job-000001.ckpt" bs=1 seek=40 conv=notrunc 2> /dev/null
"$rbb" serve --socket "$tracedir/c.sock" --state-dir "$servedir/c" \
  --checkpoint-every 50 --failpoint 'io.fsync@p=0.05,seed=3' \
  > "$servedir/c.log" 2>&1 &
pid=$!
"$rbb" submit --socket "$tracedir/c.sock" --result job-000001 > "$servedir/chaotic.txt"
"$rbb" submit --socket "$tracedir/c.sock" --stats > "$servedir/cstats.json"
# Scraped over the socket: metrics.prom may miss a write under the
# armed fsync faults.
"$rbb" submit --socket "$tracedir/c.sock" --metrics > "$servedir/cscrape.txt"
"$rbb" submit --socket "$tracedir/c.sock" --shutdown > /dev/null
wait "$pid"
[ -n "$(ls -A "$servedir/c/quarantine" 2> /dev/null)" ] \
  || { echo "check.sh: corrupted checkpoint was not quarantined"; exit 1; }
grep -q '"quarantined":[1-9]' "$servedir/cstats.json" \
  || { echo "check.sh: daemon stats did not count the quarantine"; exit 1; }
q_stats=$(grep -o '"quarantined":[0-9]*' "$servedir/cstats.json" | grep -o '[0-9]*$')
q_scraped=$(grep -o '^rbb_quarantined_total [0-9]*$' "$servedir/cscrape.txt" \
  | grep -o '[0-9]*$' || true)
[ "$q_scraped" = "$q_stats" ] \
  || { echo "check.sh: scraped rbb_quarantined_total ${q_scraped:-missing} != stats quarantined $q_stats"; exit 1; }
cmp -s "$servedir/chaotic.txt" "$servedir/solid.txt" \
  || { echo "check.sh: corrupted-checkpoint recovery diverged from the uninterrupted run"; exit 1; }

# Chaos smoke, campaign half: a short seeded rbb chaos run (real
# kill -9 cycles, bit flips, injected I/O faults) must report zero
# acked jobs lost and zero identity violations, and exits nonzero on
# any invariant breach.
mkdir -p "$tracedir/chaos"
"$rbb" chaos --dir "$tracedir/chaos" --cycles 2 --jobs 3 --rounds 1500 \
  --seed 13 --fault-p 0.04 --json "$tracedir/chaos.json" > /dev/null \
  || { echo "check.sh: chaos campaign reported an invariant violation"; exit 1; }
grep -q '"acked_jobs_lost":0' "$tracedir/chaos.json" \
  && grep -q '"identity_violations":0' "$tracedir/chaos.json" \
  || { echo "check.sh: chaos campaign JSON missing clean verdicts"; exit 1; }

# Benchmark smoke: quick runs of the repository benchmark, whose own
# gates cover resume identity, 2-domain bit-identity and job-result
# byte identity.  run.py exits 0 whatever the gates say, so the result
# line (the last one) must report correct with no failed operation.
for workload in stationary serve_closed; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 5 \
    --quick --trace 0 > "$tracedir/perfbench.out" \
    || { echo "check.sh: perfbench $workload did not run"; exit 1; }
  python3 -c 'import json, sys
r = json.loads(sys.stdin.read().splitlines()[-1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
    < "$tracedir/perfbench.out" \
    || { echo "check.sh: perfbench $workload failed its gates"; exit 1; }
done

# Orphan guard: every lib/ module must be named in the code of some .ml
# under bin/, bench/, perfbench/, examples/ or the rest of lib/, so no
# module lives on for its own tests alone.  The files are searched with
# their comments (nested), strings, quoted strings and char literals
# blanked out: a module that only a comment names does not pass.  Gof
# and Hitting are exempt: they are the references the tests compare the
# engines against.
python3 - "$tracedir/code" bin bench perfbench examples lib <<'PY'
import os, re, sys

QUOTED = re.compile(r"\{([a-z_]*)\|")
CHAR = re.compile(r"'(?:[^\\'\n]|\\(?:[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}|.))'")

def code_only(src):
    out, i, depth = [], 0, 0
    while i < len(src):
        if src.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and src.startswith("*)", i):
            depth, i = depth - 1, i + 2
        elif src[i] == '"':
            i += 1
            while i < len(src) and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
        elif QUOTED.match(src, i):
            close = "|" + QUOTED.match(src, i).group(1) + "}"
            end = src.find(close, i + 1)
            i = len(src) if end < 0 else end + len(close)
        elif (src[i] == "'" and CHAR.match(src, i)
              and not (i and (src[i - 1].isalnum() or src[i - 1] in "_'"))):
            i = CHAR.match(src, i).end()
        else:
            if not depth:
                out.append(src[i])
            i += 1
            continue
        out.append(" ")
    return "".join(out)

for root in sys.argv[2:]:
    for d, _, files in os.walk(root):
        for f in files:
            if f.endswith(".ml"):
                os.makedirs(os.path.join(sys.argv[1], d), exist_ok=True)
                with open(os.path.join(d, f)) as src:
                    code = code_only(src.read())
                with open(os.path.join(sys.argv[1], d, f), "w") as dst:
                    dst.write(code)
PY
for f in lib/*/*.ml; do
  m=$(basename "$f" .ml)
  M="$(printf %s "${m:0:1}" | tr a-z A-Z)${m:1}"
  case "$M" in Gof | Hitting) continue ;; esac
  grep -rqw --include='*.ml' --exclude="$m.ml" "$M" "$tracedir/code" \
    || { echo "check.sh: $f has no caller outside test/"; exit 1; }
done

echo "check.sh: all green"
