#!/usr/bin/env bash
# Headless explorer smoke: serve a mixed directory of real, boundary,
# and malformed .dgtrace files, hit every endpoint for every discovered
# run, and fail on any 5xx or malformed JSON body. The explorer's error
# contract is that hostile input is the *server's* problem to classify
# (404/400/422), never an excuse for an internal error — so the corpus
# generator's rejection suite is served on purpose.
#
#   tools/explore_smoke.sh [BUILD_DIR]
#
# Assumes the tree is already built (diogenes + make_dgtrace_corpus).
set -euo pipefail

BUILD=${1:-build}
DIOGENES="$BUILD/src/cli/diogenes"
CORPUS_GEN="$BUILD/src/make_dgtrace_corpus"
SCRATCH=$(mktemp -d "${TMPDIR:-/tmp}/explore_smoke.XXXXXX")
SERVE="$SCRATCH/serve"
LOG="$SCRATCH/server.log"
PID=""
IDLE_PID=""

cleanup() {
  [ -n "$IDLE_PID" ] && kill "$IDLE_PID" 2>/dev/null || true
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

mkdir -p "$SERVE"

# 1. A real run collected end-to-end, plus a live (unfinalized) one.
"$DIOGENES" --trace-dir "$SERVE" cumf_als overview > /dev/null

# 2. The full hostile suite: every malformed shape open_run rejects and
#    every boundary shape it tolerates, served under the same root.
"$CORPUS_GEN" "$SCRATCH/corpus" > /dev/null
find "$SCRATCH/corpus" -name '*.dgtrace' -exec cp {} "$SERVE" \;

# 3. An empty file and a torn tail on top.
: > "$SERVE/empty.dgtrace"
cp "$SERVE/cumf_als.dgtrace" "$SERVE/torn.dgtrace"
truncate -s -41 "$SERVE/torn.dgtrace"

# 4. An archive next to the serve root so the fleet endpoints have
#    history to answer from: two quiet ingests plus a drifted variant.
"$DIOGENES" synth "$SCRATCH/fleet-a.dgtrace" --events 20000 \
  --problem-sites 2 > /dev/null
"$DIOGENES" synth "$SCRATCH/fleet-b.dgtrace" --events 20000 \
  --problem-sites 2 --op-spacing-ns 1001 > /dev/null
"$DIOGENES" synth "$SCRATCH/fleet-c.dgtrace" --events 20000 \
  --problem-sites 6 > /dev/null
"$DIOGENES" archive add "$SCRATCH/fleet-a.dgtrace" \
  --root "$SERVE/archive" --ingest-wall-ms 0 > /dev/null
"$DIOGENES" archive add "$SCRATCH/fleet-b.dgtrace" \
  --root "$SERVE/archive" --ingest-wall-ms 0 > /dev/null
"$DIOGENES" archive add "$SCRATCH/fleet-c.dgtrace" \
  --root "$SERVE/archive" --ingest-wall-ms 0 > /dev/null

# 5. Serve on an ephemeral port; parse it from the banner.
"$DIOGENES" explore "$SERVE" --port 0 > "$LOG" 2>&1 &
PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\)/.*|\1|p' "$LOG" | head -1)
  [ -n "$PORT" ] && break
  kill -0 "$PID" 2>/dev/null || { cat "$LOG"; echo "server died"; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { cat "$LOG"; echo "no listen banner"; exit 1; }
BASE="http://127.0.0.1:$PORT"
echo "explorer up on $BASE (pid $PID)"

# fetch TARGET — fail on 5xx and on a JSON body that does not parse.
# Body to stdout (for capture); the status log line to stderr.
fetch() {
  local target=$1 body code
  body=$(mktemp "$SCRATCH/body.XXXXXX")
  code=$(curl -sS -o "$body" -w '%{http_code}' "$BASE$target")
  if [ "$code" -ge 500 ]; then
    echo "FAIL: $target answered $code" >&2; cat "$body" >&2; exit 1
  fi
  case $target in
    /|/index.html) ;;    # HTML page: status check only
    /metrics)            # Prometheus text: every line a comment or sample
      if ! python3 -c '
import re, sys
ok = re.compile(r"^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+)$")
lines = [l.rstrip("\n") for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty exposition"
for l in lines:
    assert ok.match(l), "bad line: " + l
' "$body"; then
        echo "FAIL: /metrics returned malformed exposition text" >&2
        cat "$body" >&2; exit 1
      fi
      ;;
    *)
      python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$body" \
        || { echo "FAIL: $target returned malformed JSON" >&2
             cat "$body" >&2; exit 1; }
      ;;
  esac
  echo "ok  $code  $target" >&2
  cat "$body"
}

# An idle peer must not wedge the explorer: hold one connection open
# without sending a byte, and require /healthz within 2 s beside it.
python3 - "$PORT" "$SCRATCH/idle.ready" <<'PY' &
import socket, sys, time
peer = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
open(sys.argv[2], "w").close()
time.sleep(30)
PY
IDLE_PID=$!
for _ in $(seq 1 50); do
  [ -e "$SCRATCH/idle.ready" ] && break
  sleep 0.1
done
code=$(curl -sS -m 2 -o /dev/null -w '%{http_code}' "$BASE/healthz") \
  || code="no answer"
kill "$IDLE_PID" 2>/dev/null || true
wait "$IDLE_PID" 2>/dev/null || true
IDLE_PID=""
[ "$code" = 200 ] \
  || { echo "FAIL: /healthz beside an idle peer: $code"; exit 1; }
echo "ok  200  /healthz beside an idle peer" >&2

fetch /healthz > /dev/null
fetch / > /dev/null
RUNS_JSON=$(fetch /api/runs)

# 6. Every endpoint for every discovered run (including the hostile
#    ones), plus the explicit error-path probes.
RUN_NAMES=$(printf '%s' "$RUNS_JSON" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
for r in doc["runs"]:
    print(r["run"])
')
[ -n "$RUN_NAMES" ] || { echo "FAIL: /api/runs discovered nothing"; exit 1; }
while IFS= read -r run; do
  for ep in stat timeline flame findings syncsites; do
    fetch "/api/$ep?run=$run" > /dev/null
  done
  fetch "/api/timeline?run=$run&px=64&tracks=op" > /dev/null
done <<< "$RUN_NAMES"

fetch "/api/stat?run=no_such_run" > /dev/null
fetch "/api/timeline?run=cumf_als&tracks=bogus_kind" > /dev/null
fetch "/api/timeline?run=cumf_als&t0=9&t1=3" > /dev/null
fetch "/no/such/endpoint" > /dev/null

# 7. The fleet surface: scrapeable metrics, ingest history, and the
#    regression sentinel (the archive seeded in step 4 guarantees a
#    drifted workload), plus their error paths.
fetch "/metrics" | grep -q "diogenes_archive_runs 3" \
  || { echo "FAIL: /metrics missing archive gauges"; exit 1; }
fetch "/api/history?workload=synthetic&px=64" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["schema"] == "diogenes.history.v1", doc
assert doc["runs"] == 3, doc
assert len(doc["bins"]) == 3, doc
'
fetch "/api/regressions" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["schema"] == "diogenes.regress.v1", doc
assert doc["drifted_workloads"] >= 1, "seeded drift must be reported"
'
fetch "/api/history" > /dev/null                   # 400: workload required
fetch "/api/history?workload=no_such" > /dev/null  # 404

echo "explore smoke: all endpoints answered sub-5xx with valid JSON"
