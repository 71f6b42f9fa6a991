#!/bin/sh
# CLI-level input contract for esg_sim and esg_tracegen: every malformed flag,
# spec or trace must exit with the configuration-error code 2 (naming the
# offending input on stderr where noted), and spec files with CRLF line ends
# and '#' comment lines must load.
#
# usage: malformed_inputs.sh <esg_sim> <esg_tracegen>
set -u
sim=$1
tracegen=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

# expect <exit-code> <stderr-substring or ""> <command...>
expect() {
  want=$1
  needle=$2
  shift 2
  rc=0
  "$@" >/dev/null 2>"$tmp/err" || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: $* exited $rc, want $want"
    head -n 3 "$tmp/err"
    failures=$((failures + 1))
  elif [ -n "$needle" ] && ! grep -qF -- "$needle" "$tmp/err"; then
    echo "FAIL: stderr of $* lacks '$needle'"
    head -n 3 "$tmp/err"
    failures=$((failures + 1))
  fi
}

# Fault specs and bare flag values.
expect 2 "--fault-spec" "$sim" --fault-spec "explode:prob=1"
expect 2 "fault-spec clause 'explode:prob=1'" \
  "$sim" --fault-spec "explode:prob=1"
expect 2 "" "$sim" --horizon-ms nan

# Workload traces and the trace generator.
printf 'esg-trace,v1,bin_ms=500,apps=2\n0,0,nan\n' >"$tmp/bad.csv"
expect 2 "workload-trace line 2" "$sim" --arrivals "trace:@$tmp/bad.csv"
expect 2 "" "$sim" --arrivals "trace:@/no/such/file.csv"
expect 2 "" "$tracegen" --bins 0

# Elastic specs and spot reclamation (the unquoted $bad splits into the flag
# and its value).
for bad in \
  '--elastic gradient' \
  '--elastic queue:min=5,max=2' \
  '--elastic queue:frobnicate=1' \
  '--fault-spec spot:at=100' \
  '--fault-spec spot:at=100,nodes=0'; do
  # shellcheck disable=SC2086
  expect 2 "" "$sim" $bad
done
expect 2 "" "$sim" --horizon-ms 500 --nodes 4 --fault-spec "spot:at=100,nodes=1"

# Tenant specs.
for bad in \
  'justaname' \
  'a:0' \
  'a:1:plasma' \
  'a:1:hybrid=2' \
  'a:1;a:2' \
  'a:1:apps=3;b:1:apps=3' \
  'a:1;b:1;throttle=0' \
  '@/no/such/tenants.txt'; do
  expect 2 "" "$sim" --tenants "$bad"
done

# Forecast specs.
for bad in \
  '--forecast arima' \
  '--forecast ewma:alpha=2' \
  '--forecast ewma:alpha=0.3,alpha=0.4' \
  '--forecast oracle:alpha=0.5' \
  '--forecast seasonal:bins=0' \
  '--forecast oracle;lead-ms=-1' \
  '--forecast oracle' \
  '--forecast @/no/such/forecast.spec' \
  '--elastic forecast'; do
  # shellcheck disable=SC2086
  expect 2 "" "$sim" $bad
done

# Duplicate --arrivals keys are rejected like every other spec's.
printf 'esg-trace,v1,bin_ms=500,apps=2\n0,0,5\n' >"$tmp/good.csv"
expect 2 "duplicate key 'calm-ms'" \
  "$sim" --arrivals "bursty:calm-ms=100,calm-ms=200"
expect 2 "duplicate key 'rate-scale'" "$sim" \
  --arrivals "trace:@$tmp/good.csv,rate-scale=1,rate-scale=2"

# CRLF spec files with comment and blank lines load; overlap errors still
# cite the file's real line numbers.
printf '# one outage\r\ncrash:invoker=1,at=100,down=50\r\n' >"$tmp/fault.spec"
expect 0 "" "$sim" --horizon-ms 200 --nodes 2 --fault-spec "@$tmp/fault.spec"
printf '# tiers\r\ngold:3\r\n\r\nbronze:1\r\n' >"$tmp/tenants.spec"
expect 0 "" "$sim" --horizon-ms 200 --nodes 2 --tenants "@$tmp/tenants.spec"
printf '# predictor\r\newma:alpha=0.5\r\nlead-ms=500\r\n' >"$tmp/forecast.spec"
expect 0 "" "$sim" --horizon-ms 200 --nodes 2 --forecast "@$tmp/forecast.spec"
printf '# c\r\ncrash:invoker=1,at=0,down=100\r\n\r\ncrash:invoker=1,at=50,down=10\r\n' \
  >"$tmp/overlap.spec"
expect 2 "fault-spec line 4" "$sim" --fault-spec "@$tmp/overlap.spec"

if [ "$failures" -ne 0 ]; then
  echo "$failures malformed-input check(s) failed"
  exit 1
fi
echo "all malformed-input checks passed"
