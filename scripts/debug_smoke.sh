#!/usr/bin/env bash
# Debug-endpoint smoke: boot the sharded REPL with the debug mux, run one
# top-k session through it, then curl /debug/queries and /metrics and lint
# what comes back. Exercises exactly what an operator would: the live query
# registry rows (the finished session must appear in the recent ring, sharded,
# with its emitted/k progress) and the Prometheus text exposition (every
# series under a declared TYPE, no duplicates, cumulative histogram buckets).
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${SMOKE_PORT:-9469}"
OUT="$(mktemp -d)"
trap 'kill "$REPL_PID" 2>/dev/null || true; rm -rf "$OUT"' EXIT

go build -o "$OUT/raqo" ./cmd/raqo

# Hold stdin open after the query so the REPL (and the mux) stays up while we
# curl; the here-process exits on its own once the sleep runs out.
(
  printf 'SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 5;\n'
  sleep 30
) | "$OUT/raqo" -shards 2 -rows 2000 -tables 2 -metrics "$ADDR" >"$OUT/repl.log" 2>&1 &
REPL_PID=$!

for i in $(seq 1 50); do
  if curl -fsS "http://$ADDR/metrics" -o "$OUT/metrics.txt" 2>/dev/null; then
    break
  fi
  if ! kill -0 "$REPL_PID" 2>/dev/null; then
    echo "debug smoke: raqo exited before serving; log:" >&2
    cat "$OUT/repl.log" >&2
    exit 1
  fi
  sleep 0.2
done

# Give the query time to finish and land in the registry's recent ring, then
# re-fetch metrics so the operator histograms include the session.
sleep 1
curl -fsS "http://$ADDR/debug/queries" -o "$OUT/queries.json"
curl -fsS "http://$ADDR/metrics" -o "$OUT/metrics.txt"

python3 - "$OUT/queries.json" "$OUT/metrics.txt" <<'PY'
import json, re, sys

qpath, mpath = sys.argv[1], sys.argv[2]

# --- /debug/queries: the session must be visible, sharded, and done. ---
rows = json.load(open(qpath)).get("queries")
if not isinstance(rows, list) or not rows:
    sys.exit("debug smoke: /debug/queries returned no rows")
done = [r for r in rows if r.get("state") == "done"]
if not done:
    sys.exit(f"debug smoke: no done session on /debug/queries: {rows}")
q = done[0]
if not q.get("sharded"):
    sys.exit(f"debug smoke: session did not run sharded: {q}")
if q.get("emitted") != 5 or q.get("k") != 5:
    sys.exit(f"debug smoke: bad rank-aware progress (want emitted=5 k=5): {q}")
print(f"queries ok: #{q['id']} [{q['state']}] sharded emitted={q['emitted']}/{q['k']}")

# --- /metrics: lint the Prometheus text exposition. ---
text = open(mpath).read()
typed, seen = {}, set()
samples = {}
for ln in text.splitlines():
    if not ln or ln.startswith("# HELP"):
        continue
    if ln.startswith("# TYPE"):
        _, _, fam, kind = ln.split()
        if fam in typed:
            sys.exit(f"prom lint: duplicate TYPE for {fam}")
        typed[fam] = kind
        continue
    if ln.startswith("#"):
        continue
    m = re.match(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$', ln)
    if not m:
        sys.exit(f"prom lint: malformed sample line: {ln!r}")
    name, labels, val = m.group(1), m.group(2) or "", m.group(3)
    fam = re.sub(r'_(bucket|sum|count)$', '', name) if re.sub(
        r'_(bucket|sum|count)$', '', name) in typed else name
    if fam not in typed:
        sys.exit(f"prom lint: sample {name} has no TYPE declaration")
    if (name, labels) in seen:
        sys.exit(f"prom lint: duplicate series {name}{labels}")
    seen.add((name, labels))
    float(val)  # must parse
    if name.endswith("_bucket"):
        le = re.search(r'le="([^"]*)"', labels)
        if not le:
            sys.exit(f"prom lint: bucket without le label: {ln!r}")
        key = (fam, re.sub(r'(,\s*)?le="[^"]*"', '', labels))
        bound = float("inf") if le.group(1) == "+Inf" else float(le.group(1))
        prev_bound, prev_count = samples.get(key, (float("-inf"), 0.0))
        if bound <= prev_bound:
            sys.exit(f"prom lint: bucket bounds not increasing in {fam}{labels}")
        if float(val) < prev_count:
            sys.exit(f"prom lint: non-cumulative buckets in {fam}{labels}")
        samples[key] = (bound, float(val))

for want in ("raqo_shard_fallbacks_total",
             "raqo_operator_depth", "raqo_operator_latency_seconds"):
    if want not in typed:
        sys.exit(f"prom lint: missing family {want}")
shard_merge = [s for s in seen if s[0] == "raqo_operator_depth_count"
               and 'op="ShardMerge"' in s[1]]
if not shard_merge:
    sys.exit("prom lint: no ShardMerge depth histogram series")
print(f"metrics ok: {len(typed)} families, {len(seen)} series lint clean")
PY

echo "debug smoke passed"
