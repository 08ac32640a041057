#!/usr/bin/env bash
# End-to-end serving smoke: index a toy CSV lake, start mate_server on an
# ephemeral port, round-trip a client PING + QUERY + STATS + METRICS over
# the wire (asserting the Prometheus page parses and carries the core
# serving series), then SIGTERM the server and require a clean
# graceful-drain exit (0). Finally, malformed flags and a corpus stamped
# with a retired format version must fail cleanly: exit 1 with an
# `error:` line.
#
# Usage: tools/server_smoke.sh [BIN_DIR]   (default: build)
set -euo pipefail

BIN_DIR="${1:-build}"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill -KILL "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

mkdir -p "$WORK/lake"
cat > "$WORK/lake/people.csv" <<'EOF'
first,last,country
Muhammad,Lee,US
Helmut,Newton,Germany
Ansel,Adams,UK
EOF
cat > "$WORK/lake/pets.csv" <<'EOF'
owner_first,owner_last,pet
Muhammad,Lee,cat
Helmut,Newton,dachshund
Grace,Hopper,moth
EOF
cat > "$WORK/query.csv" <<'EOF'
first,last
Muhammad,Lee
Helmut,Newton
EOF

"$BIN_DIR/mate_cli" index --csv-dir "$WORK/lake" \
  --corpus "$WORK/corpus.mate" --index "$WORK/index.mate"

"$BIN_DIR/mate_server" --corpus "$WORK/corpus.mate" \
  --index "$WORK/index.mate" --port 0 --port-file "$WORK/port.txt" \
  --queue-depth 16 --tenant-cache-mb 4 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [[ -s "$WORK/port.txt" ]] && break
  sleep 0.1
done
[[ -s "$WORK/port.txt" ]] || { echo "server never published a port"; exit 1; }
PORT="$(cat "$WORK/port.txt")"

"$BIN_DIR/mate_cli" client --port "$PORT" --ping
# Exit 0 requires every request served (sheds exit 3, transport errors 1).
"$BIN_DIR/mate_cli" client --port "$PORT" --query "$WORK/query.csv" \
  --key first,last --tenant acme --k 5 --stats

# METRICS: the Prometheus text page must parse (every non-comment line is
# `name{labels} value`) and carry the core serving series, with the
# admitted-queries counter reflecting the query served above.
"$BIN_DIR/mate_cli" client --port "$PORT" --metrics > "$WORK/metrics.txt"
for series in mate_queries_total mate_queue_depth \
    mate_query_latency_seconds; do
  grep -q "^# TYPE $series " "$WORK/metrics.txt" || {
    echo "METRICS page is missing series $series"; exit 1; }
done
grep -q '^mate_queries_total 1$' "$WORK/metrics.txt" || {
  echo "mate_queries_total should be 1 after one served query"; cat "$WORK/metrics.txt"; exit 1; }
awk '/^#/ { next } NF != 2 && !/^$/ { print "unparseable metrics line: " $0; bad = 1 } END { exit bad }' \
  "$WORK/metrics.txt"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"  # non-zero here fails the script: drain must be clean
SERVER_PID=""

# Steering smoke: same lake, --steering=auto with a deliberately tiny p99
# target. Served bits must still match (mate_cli client verifies ranks
# in-process via --stats) and the steering decision counter must appear
# on the METRICS page with at least one decision taken.
"$BIN_DIR/mate_server" --corpus "$WORK/corpus.mate" \
  --index "$WORK/index.mate" --port 0 --port-file "$WORK/port2.txt" \
  --queue-depth 16 --tenant-cache-mb 4 --max-tenants 8 \
  --steering=auto --target-p99-ms 1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [[ -s "$WORK/port2.txt" ]] && break
  sleep 0.1
done
[[ -s "$WORK/port2.txt" ]] || { echo "steering server never published a port"; exit 1; }
PORT="$(cat "$WORK/port2.txt")"

"$BIN_DIR/mate_cli" client --port "$PORT" --query "$WORK/query.csv" \
  --key first,last --tenant acme --k 5 --stats
"$BIN_DIR/mate_cli" client --port "$PORT" --metrics > "$WORK/metrics2.txt"
grep -q '^# TYPE mate_steering_decisions_total counter$' "$WORK/metrics2.txt" || {
  echo "METRICS page is missing mate_steering_decisions_total"; exit 1; }
awk -F' ' '/^mate_steering_decisions_total\{/ { total += $2 }
  END { exit total > 0 ? 0 : 1 }' "$WORK/metrics2.txt" || {
  echo "steering=auto served a query but counted no steering decision"
  cat "$WORK/metrics2.txt"; exit 1; }

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
# Runs a command that must fail cleanly: exit 1 with an `error:` line
# matching PATTERN (an uncaught exception would abort with 134).
expect_error() {
  local pattern="$1" status=0
  shift
  "$@" > "$WORK/error.txt" 2>&1 || status=$?
  if [[ $status -ne 1 ]] || ! grep -q "^error: .*$pattern" "$WORK/error.txt"; then
    echo "expected exit 1 with 'error: ...$pattern', got $status from: $*"
    cat "$WORK/error.txt"; exit 1
  fi
}
CLI="$BIN_DIR/mate_cli"
CORPUS="$WORK/corpus.mate"
QUERY="$WORK/query.csv"
expect_error "--k must be an integer" "$CLI" union --corpus "$CORPUS" --query "$QUERY" --k abc
expect_error "--k must be an integer" "$CLI" union --corpus "$CORPUS" --query "$QUERY" --k -3
expect_error "--min-overlap must be a number" "$CLI" dups --corpus "$CORPUS" --min-overlap x
expect_error "no query column named" "$CLI" search --corpus "$CORPUS" \
  --index "$WORK/index.mate" --query "$QUERY" --key 99999999999999999999

# Corpus format v3 is the only one: a corpus stamped with version 2 (the
# u32 after the 8-byte magic) must be refused by name, not misparsed.
cp "$CORPUS" "$WORK/v2.mate"
printf '\x02' | dd of="$WORK/v2.mate" bs=1 seek=8 count=1 conv=notrunc 2> /dev/null
expect_error "unsupported version 2" "$CLI" search --corpus "$WORK/v2.mate" \
  --index "$WORK/index.mate" --query "$QUERY" --key first,last
expect_error "unsupported version 2" timeout 60 "$BIN_DIR/mate_server" \
  --corpus "$WORK/v2.mate" --index "$WORK/index.mate" --port 0

echo "server smoke OK"
