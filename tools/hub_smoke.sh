#!/usr/bin/env bash
# Trace-hub smoke: run `diogenes serve` (ideally under ASan/UBSan), push
# the full corpus at it — finalized runs, boundary shapes, and the
# malformed rejection suite — plus two synthetic workloads, a run
# streamed live through --sink, and a push behind a house full of idle
# peers, then read the fleet surface back over HTTP. The daemon's contract: every hostile stream is *refused with a
# classified error*, never a crash; every accepted stream is archived
# byte-identically; a re-push deduplicates; /api/history and /metrics
# keep answering well-formed bodies throughout.
#
#   tools/hub_smoke.sh [BUILD_DIR]
#
# Assumes the tree is already built (diogenes + make_dgtrace_corpus).
set -euo pipefail

BUILD=${1:-build}
DIOGENES="$BUILD/src/cli/diogenes"
CORPUS_GEN="$BUILD/src/make_dgtrace_corpus"
SCRATCH=$(mktemp -d "${TMPDIR:-/tmp}/hub_smoke.XXXXXX")
ROOT="$SCRATCH/archive"
LOG="$SCRATCH/hub.log"
PID=""
PEERS_PID=""

cleanup() {
  [ -n "$PEERS_PID" ] && kill "$PEERS_PID" 2>/dev/null || true
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  [ -n "$PID" ] && wait "$PID" 2>/dev/null || true
  rm -rf "$SCRATCH"
}
trap cleanup EXIT

# 1. The daemon on ephemeral ports; parse both banners.
"$DIOGENES" serve "$ROOT" --port 0 --http-port 0 --ingest-wall-ms 0 \
  > "$LOG" 2>&1 &
PID=$!
HUB_PORT=""
HTTP_PORT=""
for _ in $(seq 1 100); do
  HUB_PORT=$(sed -n 's|.*tcp://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$LOG" | head -1)
  HTTP_PORT=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\)/.*|\1|p' "$LOG" | head -1)
  [ -n "$HUB_PORT" ] && [ -n "$HTTP_PORT" ] && break
  kill -0 "$PID" 2>/dev/null || { cat "$LOG"; echo "hub died"; exit 1; }
  sleep 0.1
done
[ -n "$HUB_PORT" ] && [ -n "$HTTP_PORT" ] \
  || { cat "$LOG"; echo "no listen banner"; exit 1; }
BASE="http://127.0.0.1:$HTTP_PORT"
echo "hub up on tcp port $HUB_PORT, explorer on $BASE (pid $PID)"

# hub_alive — the one failure this smoke exists to catch.
hub_alive() {
  kill -0 "$PID" 2>/dev/null \
    || { cat "$LOG"; echo "FAIL: hub crashed ($1)"; exit 1; }
}

# 2. Two synthetic workloads: one pushed twice (the dedup probe), one
#    perturbed so the regression sentinel has something to compare.
"$DIOGENES" synth "$SCRATCH/synth-a.dgtrace" --events 20000 \
  --problem-sites 2 > /dev/null
"$DIOGENES" synth "$SCRATCH/synth-b.dgtrace" --events 20000 \
  --problem-sites 6 > /dev/null
OUT_A=$("$DIOGENES" push "$SCRATCH/synth-a.dgtrace" --port "$HUB_PORT")
case $OUT_A in archived\ *) ;; *)
  echo "FAIL: first push not archived: $OUT_A"; exit 1;; esac
OUT_A2=$("$DIOGENES" push "$SCRATCH/synth-a.dgtrace" --port "$HUB_PORT")
case $OUT_A2 in dedup\ *) ;; *)
  echo "FAIL: re-push not deduplicated: $OUT_A2"; exit 1;; esac
"$DIOGENES" push "$SCRATCH/synth-b.dgtrace" --port "$HUB_PORT" > /dev/null
hub_alive "after synth pushes"

# Byte-identity: the archived object for the first push equals the
# pushed file, bit for bit.
RUN_ID=$(printf '%s' "$OUT_A" | awk '{print $2}')
cmp "$ROOT/objects/$RUN_ID.dgtrace" "$SCRATCH/synth-a.dgtrace" \
  || { echo "FAIL: archived object differs from the pushed file"; exit 1; }

# The hub digests the run its session decoded; `archive add` opens the
# file. With the same pinned clock both write the same index line.
"$DIOGENES" archive add "$SCRATCH/synth-a.dgtrace" --root "$SCRATCH/local" \
  --ingest-wall-ms 0 > /dev/null
grep "\"run_id\":\"$RUN_ID\"" "$ROOT/index.jsonl" > "$SCRATCH/hub.line"
grep "\"run_id\":\"$RUN_ID\"" "$SCRATCH/local/index.jsonl" \
  > "$SCRATCH/local.line"
[ -s "$SCRATCH/hub.line" ] || { echo "FAIL: no hub index line"; exit 1; }
cmp "$SCRATCH/hub.line" "$SCRATCH/local.line" \
  || { echo "FAIL: hub and archive add wrote different index lines"
       exit 1; }

# Fleet read-back while only the two synthetic pushes are archived:
# the history endpoint must report exactly those two runs (the dedup
# re-push appended nothing).
fetch() {
  local target=$1 body code
  body=$(mktemp "$SCRATCH/body.XXXXXX")
  code=$(curl -sS -o "$body" -w '%{http_code}' "$BASE$target")
  if [ "$code" -ge 500 ]; then
    echo "FAIL: $target answered $code" >&2; cat "$body" >&2; exit 1
  fi
  echo "ok  $code  $target" >&2
  cat "$body"
}
fetch "/api/history?workload=synthetic&px=64" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["schema"] == "diogenes.history.v1", doc
assert doc["runs"] == 2, doc
'

# 3. A run streamed live through the seal-callback sink (--sink acts only
#    with --live). The hub archives the finished stream as one run.
"$DIOGENES" --live --trace-dir "$SCRATCH/live" \
  --sink "tcp://127.0.0.1:$HUB_PORT" cumf_als overview > /dev/null
hub_alive "after --sink stream"
fetch "/api/history?workload=cumf_als&px=64" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["schema"] == "diogenes.history.v1", doc
assert doc["runs"] == 1, doc
'

# 4. The hostile suite: every corpus and regression shape, pushed as-is.
#    Finalized shapes archive; torn and malformed shapes must be refused
#    with a classified error (exit 1, "push failed:") — never a crash,
#    and never a wedged daemon.
"$CORPUS_GEN" "$SCRATCH/corpus" > /dev/null
: > "$SCRATCH/empty.dgtrace"
find "$SCRATCH/corpus" "$SCRATCH/empty.dgtrace" -name '*.dgtrace' \
  | sort | while IFS= read -r f; do
  ERR="$SCRATCH/push.err"
  if "$DIOGENES" push "$f" --port "$HUB_PORT" --workload hostile \
      > /dev/null 2> "$ERR"; then
    echo "ok  accepted  $(basename "$f")"
  else
    code=$?
    [ "$code" -eq 1 ] || { echo "FAIL: push of $(basename "$f") died" \
      "with code $code"; cat "$ERR"; exit 1; }
    grep -q "push failed:" "$ERR" \
      || { echo "FAIL: refusal without a classified error"; cat "$ERR"
           exit 1; }
    echo "ok  refused   $(basename "$f")"
  fi
  hub_alive "after $(basename "$f")"
done

# 5. A full house: hello-less peers hold all 8 default slots, so a
#    1M-event push behind them is refused while it is still sending. It
#    must exit 1 with the hub's "at capacity" verdict, not the reset;
#    the hub then drops each peer at its hello deadline.
"$DIOGENES" synth "$SCRATCH/big.dgtrace" --events 1000000 > /dev/null
python3 - "$HUB_PORT" "$SCRATCH/peers.ready" <<'PY' &
import socket, sys
peers = [socket.create_connection(("127.0.0.1", int(sys.argv[1])))
         for _ in range(8)]
open(sys.argv[2], "w").close()
for peer in peers:  # until the hub closes each one
    peer.settimeout(30)
    try:
        while peer.recv(4096):
            pass
    except ConnectionResetError:
        pass
PY
PEERS_PID=$!
for _ in $(seq 1 50); do
  [ -e "$SCRATCH/peers.ready" ] && break
  sleep 0.1
done
ERR="$SCRATCH/full.err"
if "$DIOGENES" push "$SCRATCH/big.dgtrace" --port "$HUB_PORT" \
    > /dev/null 2> "$ERR"; then
  echo "FAIL: push admitted past max_clients"; exit 1
else
  code=$?
  [ "$code" -eq 1 ] || { echo "FAIL: refused push exited $code"; cat "$ERR"
                         exit 1; }
fi
grep -q "at capacity" "$ERR" \
  || { echo "FAIL: refused push lost the verdict"; cat "$ERR"; exit 1; }
wait "$PEERS_PID"
PEERS_PID=""
echo "ok  refused   push behind a full house: $(cat "$ERR")"
hub_alive "after the full house"

# 6. The fleet surface, read back over HTTP while the daemon is live.
# /metrics: well-formed Prometheus exposition carrying the hub counters,
# with per-session accounting that reconciles with what we pushed.
fetch /metrics > "$SCRATCH/metrics.txt"
python3 - "$SCRATCH/metrics.txt" <<'PY'
import re, sys
ok = re.compile(r"^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+)$")
lines = [l.rstrip("\n") for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty exposition"
for l in lines:
    assert ok.match(l), "bad line: " + l
vals = {}
for l in lines:
    if not l.startswith("#"):
        name, _, v = l.partition(" ")
        vals[name] = float(v)
assert vals.get("diogenes_hub_sessions", 0) >= 4, vals
assert vals.get("diogenes_hub_ingested", 0) >= 4, vals
assert vals.get("diogenes_hub_dedup", 0) >= 1, vals
assert vals.get("diogenes_hub_errors", 0) >= 1, vals
assert vals.get("diogenes_hub_sessions_active", -1) == 0, vals
assert vals.get("diogenes_hub_deadline_expired", 0) >= 1, vals
PY

# /api/history again: the accepted corpus shapes also carry the default
# "synthetic" workload meta, so the count only ever grows.
fetch "/api/history?workload=synthetic&px=64" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["schema"] == "diogenes.history.v1", doc
assert doc["runs"] >= 2, doc
'
# /api/regressions: answers well-formed (the perturbed workload may or
# may not cross the drift threshold; the schema always holds).
fetch "/api/regressions" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["schema"] == "diogenes.regress.v1", doc
'
hub_alive "after fleet reads"

echo "hub smoke: hostile streams refused, accepted streams archived," \
  "fleet surface consistent"
