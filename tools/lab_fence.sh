#!/bin/sh
# Byte-identity fence for the eona_lab surface.
#
#   tools/lab_fence.sh OUT_DIR [EONA_LAB]
#
# Runs a fixed matrix of eona_lab commands and keeps every output in
# OUT_DIR: for a command NAME, NAME.out (stdout), NAME.err (stderr) and
# NAME.code (exit status), plus any file the command writes. Run it for
# two builds and compare the two directories with `diff -r`: every output
# that changed shows up. EONA_LAB defaults to build/tools/eona_lab.
#
# Commands run inside OUT_DIR with relative file names, so outputs that
# echo a path (query's "file" field) compare equal between directories.
# --perf's host-dependent fields (wall clock, rates, RSS, phase seconds)
# are dropped; its work counters are kept.
set -eu

if [ $# -lt 1 ]; then
  echo "usage: $0 OUT_DIR [EONA_LAB]" >&2
  exit 2
fi
lab_arg=${2:-build/tools/eona_lab}
lab=$(cd "$(dirname "$lab_arg")" && pwd)/$(basename "$lab_arg")
mkdir -p "$1"
cd "$1"

# run NAME ARGS...: eona_lab ARGS, outputs kept under NAME.
run() {
  name=$1
  shift
  set +e
  "$lab" "$@" >"$name.out" 2>"$name.err"
  echo $? >"$name.code"
  set -e
}

# perf NAME ARGS...: run with --perf, dropping the host-dependent fields.
perf() {
  name=$1
  shift
  run "$name" "$@" --perf
  grep -v -E 'wall_seconds|events_per_sec|peak_rss_bytes|_seconds"|serial_fraction' \
    "$name.err" >"$name.err.counters" || true
  rm "$name.err"
}

run list list

# Every scenario but scale at its defaults, two seeds.
for scenario in flashcrowd oscillation coarse energy cellular fairness \
    federation quickstart failover broker_outage; do
  for seed in 1 2; do
    run "$scenario-seed$seed" "$scenario" seed=$seed
  done
done

# scale in small configs: thread counts, elision on and off, a diurnal
# night trough.
small="sessions=400 sectors=4 run_duration=300 video_duration=60"
run scale-threads1 scale $small threads=1
run scale-threads4 scale $small threads=4
run scale-noelide scale $small threads=1 elide=0
run scale-diurnal scale sessions=800 sectors=8 threads=2 run_duration=420 \
  video_duration=60 diurnal=1 diurnal_night_frac=0 arrival_window=240

# flashcrowd's provisioning, control-plane faults and robustness keys.
run flashcrowd-forecast flashcrowd provision=forecast
run flashcrowd-reactive flashcrowd provision=reactive mode=eona
run flashcrowd-faults flashcrowd mode=eona i2a_drop=0.2 i2a_duplicate=0.1 \
  i2a_jitter=2 a2i_drop=0.1 outage_start=200 outage_end=260 robust=0 \
  max_retries=2 base_backoff=1 freshness_deadline=30 stale_widening=3
run failover-plan failover mode=eona --faults='down:X@B@120;up:X@B@180'

# The paths that read reports, each traced and stored so every bus event
# and store row is compared too: the eona-mode runs, both fairness AppPs
# on EONA, the energy guardrail, the broker's quota clamp and the degraded
# arm of the broker outage.
traced() {
  name=$1
  shift
  run "$name" "$@" --trace="$name.trace.jsonl" --store="$name.store.jsonl"
}
for scenario in flashcrowd oscillation coarse quickstart failover; do
  traced "$scenario-eona" "$scenario" mode=eona
done
traced fairness-eona fairness appp1_eona=1 appp2_eona=1
traced energy-eona energy eona=1
traced federation-broker federation broker=1
traced broker-outage-degraded broker_outage degraded=1

# Robust and naive report consumers under the same channel faults.
channel_faults="i2a_drop=0.3 i2a_duplicate=0.1 i2a_jitter=5 a2i_drop=0.2 \
  outage_start=150 outage_end=250"
traced flashcrowd-robust flashcrowd mode=eona $channel_faults robust=1 \
  max_retries=2 base_backoff=1 freshness_deadline=30
traced flashcrowd-naive flashcrowd mode=eona $channel_faults robust=0

# The broker crashes and restarts in the Fig 5 world.
traced failover-exchange failover mode=eona \
  --faults='crash:exchange@300;restart:exchange@330'

# Recorded time series.
run oscillation-csv oscillation mode=eona run_duration=900 --series=csv
run failover-csv failover --series=csv

# Trace and store files, and queries over both.
run traced quickstart seed=3 mode=eona --trace=traced.trace.jsonl \
  --store=traced.store.jsonl
run query-store-list query traced.store.jsonl
run query-store query traced.store.jsonl metric=link_util agg=p90 \
  group_by=isp,cdn
run query-store-window query traced.store.jsonl metric=a2i_sessions \
  agg=sum t0=100 t1=400 isp=0
run query-trace query traced.trace.jsonl metric=session_finished agg=count

# A traced sweep.
run sweep sweep failover seeds=1..2 modes=baseline,eona threads=2 \
  --trace=sweep.trace.jsonl

# Work counters.
perf perf-quickstart quickstart
perf perf-scale scale $small threads=2
perf perf-broker broker_outage run_duration=420 heavy_arrival_rate=0.5

# Error cases: each exits non-zero with its message on stderr.
run err-unknown-subcommand frobnicate
run err-unknown-key quickstart bogus=1
run err-mode quickstart mode=sideways
run err-provision flashcrowd provision=sometimes
run err-scale-trace scale --trace=never.jsonl
run err-cellular-faults cellular --faults=down:x@1
run err-fault-plan failover --faults=melt:X@B@120
run err-not-key-value quickstart seed
run err-empty-trace quickstart --trace=
run err-sweep-no-scenario sweep
run err-query-no-file query
run err-query-missing-file query no-such-file.jsonl
run err-query-agg query traced.store.jsonl metric=link_util agg=p42
