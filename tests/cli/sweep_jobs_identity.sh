#!/bin/sh
# Sweep contract for esg_sim: a --sweep run prints the same stdout and writes
# the same --sweep-out JSON with one worker as with four.
#
# usage: sweep_jobs_identity.sh <esg_sim>
set -eu
sim=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# One --sweep-out path for both runs: stdout echoes it.
for jobs in 1 4; do
  "$sim" --sweep --scheduler esg,infless --seeds 2 --nodes 4 \
    --horizon-ms 2000 --jobs "$jobs" --sweep-out "$tmp/sweep.json" \
    >"$tmp/stdout$jobs.txt"
  mv "$tmp/sweep.json" "$tmp/sweep$jobs.json"
done
cmp "$tmp/stdout1.txt" "$tmp/stdout4.txt"
cmp "$tmp/sweep1.json" "$tmp/sweep4.json"
echo "--jobs 1 and --jobs 4 sweeps are byte-identical"
