#!/usr/bin/env bash
# Same-runner A/B gate on inter-shard round-trip latency:
#
#   bash cmd/parlat/abgate.sh HEAD_BIN BASE_BIN
#
# Runs 30 interleaved pairs of two parlat binaries, built from the
# change and from its base commit, with identical flags, and reads the
# "async" mode's p99 from each JSON report. Fails when the head
# binary's median p99 exceeds the base binary's by more than 25%, or
# when a head run does not report dates_equal true. A single run's p99
# spreads widely on a shared host; 30 pairs keep the median of a binary
# compared with itself well inside the 25% bound.
set -euo pipefail

head_bin=$1
base_bin=$2
pairs=30
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for i in $(seq 1 "$pairs"); do
	# Alternate which side runs first, so neither always inherits a
	# warmer or a noisier host.
	if ((i % 2)); then
		"$head_bin" -json >"$out/head.$i.json"
		"$base_bin" -json >"$out/base.$i.json"
	else
		"$base_bin" -json >"$out/base.$i.json"
		"$head_bin" -json >"$out/head.$i.json"
	fi
done

python3 - "$out" "$pairs" <<'PY'
import json, statistics, sys

out, pairs = sys.argv[1], int(sys.argv[2])

def async_p99(path):
    doc = json.load(open(path))
    return doc, next(m["p99_us"] for m in doc["modes"] if m["mode"] == "async")

head, base = [], []
for i in range(1, pairs + 1):
    doc, p99 = async_p99(f"{out}/head.{i}.json")
    if doc.get("dates_equal") is not True:
        sys.exit(f"parlat A/B: head run {i} does not report dates_equal true")
    head.append(p99)
    base.append(async_p99(f"{out}/base.{i}.json")[1])

mh, mb = statistics.median(head), statistics.median(base)
print(f"parlat A/B: async p99 median head {mh:.2f}us, base {mb:.2f}us, ratio {mh / mb:.3f}")
print(f"  head {head}")
print(f"  base {base}")
if mh > 1.25 * mb:
    sys.exit("parlat A/B: head async p99 exceeds base by more than 25%")
PY
