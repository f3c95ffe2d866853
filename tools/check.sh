#!/usr/bin/env bash
# Pre-merge check: a plain build + full test suite (run three times in a
# row to catch flaky tests, with a traced quickstart run gated by
# `vinestalk_trace check`), then a ThreadSanitizer build exercising the
# concurrency surface (the trial pool, the single-writer log, and the
# observability merge paths) with more workers than trials need, then a
# watchdog stage: a monitored quickstart must stay clean, a CLI-seeded
# corruption must produce an incident bundle that replays to the same
# violation, and the Chrome export must be valid JSON. A chaos stage arms a
# canned FaultPlan through the CLI: the run must meet its recovery
# deadline with a consistent structure, and an incident captured under
# the same faults must --replay to the exact same violation. A final
# audit stage runs the per-operation cost auditor end to end: a traced
# quickstart must attribute 100% of its cost events and sit inside the
# Theorem 4.9/5.2 slack, and a traced chaos-plan run must bill its
# heartbeat and repair traffic to stabilizer operations with nothing
# leaking into background. A telemetry stage pins the time-series layer:
# a telemetered quickstart's VSTELEM1 stream must read back in both
# viewers and as a CSV whose header names every column, a chaos-plan CLI
# run must show its heartbeat/repair traffic in the telemetry summary,
# and the Prometheus snapshot must parse as text exposition format. A perf stage pins the CPU profiler: a profiled
# quickstart must write a VSPROF1 sidecar whose flamegraph folds cleanly,
# every deterministic artifact must stay byte-identical with profiling
# on vs off, and a brief bench_micro run from an empty directory must
# exit 0, count ledger entries in its enabled-ledger case, run the
# network construction case at every size, and leave no file behind. A
# serve stage drives the vinestalk_served ingest daemon: a 2×-capacity
# load burst under a chaos fault plan (which must lose and jitter
# messages, with the heartbeat stabilizer repairing) must finish
# incident-free with the conservation identity intact, the shed ladder
# visible in the Prometheus snapshot and no rate printed for the
# queue-depth gauge in the telemetry summary, and its VSINGEST1 capture
# must replay to a byte-identical world trace and a summary that reports
# the live session's tiers, applied/suppressed split and finds. An SLO
# stage pins
# request-level observability: arming a spec must leave every
# deterministic artifact (stdout, trace, telemetry, capture)
# byte-identical to the unarmed run, a tight find-p99
# objective under 2× overdrive chaos (losses and jitter injected) must
# fire a burn-rate incident mid-run, and that incident's exemplar OpId
# must resolve to real span events in the trace that survive a capture
# replay byte-identically.
# An ASan+UBSan stage builds everything with both sanitizers plus
# float-cast-overflow (any UB report aborts) and bounds-checked std
# containers, and runs the full suite: the message path keeps indices
# into growable tables, and a reference held across a reallocation is
# exactly what it catches; the per-format codec fuzzer
# (tests/test_codec.cpp) runs there too. A Debug stage builds without
# NDEBUG, so every VS_DCHECK is compiled in (the scheduler's time-order
# check, the telemetry boundary hook's advance check, the event queue's
# delay-class FIFO-order and tombstone-sweep checks), and runs the full
# suite; every other build defines NDEBUG and compiles them out.
#
#   tools/check.sh              # all stages
#   tools/check.sh --plain      # stage 1 only
#   tools/check.sh --tsan       # stage 2 only
#   tools/check.sh --monitor    # stage 3 only (reuses build-check/)
#   tools/check.sh --chaos      # stage 4 only (reuses build-check/)
#   tools/check.sh --audit      # stage 5 only (reuses build-check/)
#   tools/check.sh --telemetry  # stage 6 only (reuses build-check/)
#   tools/check.sh --perf       # stage 7 only (reuses build-check/)
#   tools/check.sh --serve      # stage 8 only (reuses build-check/)
#   tools/check.sh --slo        # stage 9 only (reuses build-check/)
#   tools/check.sh --asan       # stage 10 only
#   tools/check.sh --debug      # stage 11 only
#
# Build trees: build-check/ (plain), build-tsan/ (TSan), build-asan/
# (ASan+UBSan) and build-debug/ (Debug); all separate from the default
# build/ so this never dirties a dev tree.

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${JOBS:-$(nproc)}"
stage="${1:-all}"

# A chaos session's Prometheus snapshot must show the plan's channel
# faults: a plan whose windows miss the session injects nothing.
expect_faults() {
  local prom="$1" what="$2" series
  for series in cgcast_lost jittered; do
    awk -v s="vinestalk_telemetry_$series" '$1 == s && $2 > 0 { ok = 1 }
      END { exit !ok }' "$prom" || {
      echo "FAIL: $what injected no $series faults" >&2
      grep "^vinestalk_telemetry_$series " "$prom" >&2 || true
      exit 1; }
  done
}

run_plain() {
  echo "== stage 1: plain build + ctest + trace check =="
  cmake -B "$root/build-check" -S "$root" > /dev/null
  cmake --build "$root/build-check" -j "$jobs"
  # Flake guard: every test must pass three parallel runs in a row.
  ctest --test-dir "$root/build-check" --output-on-failure -j "$jobs" \
    --repeat until-fail:3
  # A traced end-to-end run must replay clean against the paper's lemmas.
  local trace
  trace="$(mktemp /tmp/vs_quickstart_trace.XXXXXX)"
  VS_TRACE="$trace" "$root/build-check/examples/example_quickstart" > /dev/null
  "$root/build-check/tools/vinestalk_trace" check "$trace"
  "$root/build-check/tools/vinestalk_trace" summary "$trace" > /dev/null
  rm -f "$trace"
}

run_tsan() {
  echo "== stage 2: ThreadSanitizer =="
  cmake -B "$root/build-tsan" -S "$root" -DVINESTALK_SANITIZE=thread > /dev/null
  cmake --build "$root/build-tsan" -j "$jobs" \
    --target test_concurrent test_runner test_obs test_monitor test_fault \
    test_audit test_telemetry test_profile test_serve test_slo \
    bench_e2_move_scaling
  "$root/build-tsan/tests/test_concurrent"
  "$root/build-tsan/tests/test_runner"
  "$root/build-tsan/tests/test_obs"
  "$root/build-tsan/tests/test_monitor"
  "$root/build-tsan/tests/test_fault"
  "$root/build-tsan/tests/test_audit"
  "$root/build-tsan/tests/test_telemetry"
  "$root/build-tsan/tests/test_profile"
  # The ingest daemon's reader/driver handshake and SPSC rings under TSan.
  "$root/build-tsan/tests/test_serve"
  # SLO spans close on the driver thread while RPC finds run concurrently.
  "$root/build-tsan/tests/test_slo"
  "$root/build-tsan/bench/bench_e2_move_scaling" --jobs 4 > /dev/null
  echo "TSan stage clean (zero reports would have aborted the run)."
}

run_monitor() {
  echo "== stage 3: live watchdog end-to-end =="
  cmake -B "$root/build-check" -S "$root" > /dev/null
  cmake --build "$root/build-check" -j "$jobs" \
    --target example_quickstart vinestalk_cli vinestalk_trace
  # A healthy run under the watchdog must stay violation-free in both modes.
  VS_MONITOR=every "$root/build-check/examples/example_quickstart" > /dev/null
  VS_MONITOR=1000 "$root/build-check/examples/example_quickstart" > /dev/null
  # Seed a corruption through the CLI: the watchdog must catch it, the
  # bundle must land in --incident-dir, and the bundle must replay to the
  # same violation (exit 1 from the tool would mean it did not reproduce).
  local dir
  dir="$(mktemp -d /tmp/vs_incidents.XXXXXX)"
  printf 'world 27 3\nevader 20 6\nmonitor 0 every\nwalk 0 5 42\ncorrupt 0 2 2\nquit\n' |
    "$root/build-check/tools/vinestalk_cli" --incident-dir "$dir" > /dev/null
  local bundle="$dir/incident_cli_0.vsi"
  [ -f "$bundle" ] || { echo "FAIL: no incident bundle in $dir" >&2; exit 1; }
  "$root/build-check/tools/vinestalk_trace" incident "$bundle" --replay \
    > /dev/null
  # Chrome export of a traced run must be valid JSON with events in it.
  local trace="$dir/quickstart.vst"
  VS_TRACE="$trace" "$root/build-check/examples/example_quickstart" > /dev/null
  "$root/build-check/tools/vinestalk_trace" export "$trace" \
    --out "$dir/quickstart.json" > /dev/null
  python3 - "$dir/quickstart.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["traceEvents"], "empty traceEvents"
EOF
  rm -rf "$dir"
  echo "Watchdog stage clean (clean run silent, seeded violation replayed)."
}

run_chaos() {
  echo "== stage 4: fault-plan chaos end-to-end =="
  cmake -B "$root/build-check" -S "$root" > /dev/null
  cmake --build "$root/build-check" -j "$jobs" \
    --target vinestalk_cli vinestalk_trace
  local dir
  dir="$(mktemp -d /tmp/vs_chaos.XXXXXX)"
  cat > "$dir/chaos.plan" <<'EOF'
# check.sh canned chaos: two mid-walk VSA crashes and a loss burst, with
# a damage-proportional recovery deadline the run must meet.
faultplan v1
seed 77
crash 40 at 1000000
crash 13 at 2000000
loss from 1500000 until 2500000 rate 0.05
recovery base 1000000 per-fault 200000
end
EOF
  # Clean recovery: the monitored run must repair within the deadline and
  # end consistent, with no incident captured.
  printf 'world 9 3\nevader 4 4\nmonitor 0 cadence\nfault %s\nwalk 0 20 42\ncheck 0\nquit\n' \
    "$dir/chaos.plan" |
    "$root/build-check/tools/vinestalk_cli" --incident-dir "$dir" \
    > "$dir/clean.out"
  grep -q "recovery deadline met" "$dir/clean.out" || {
    echo "FAIL: chaos run missed its recovery deadline" >&2
    cat "$dir/clean.out" >&2; exit 1; }
  grep -qx "consistent" "$dir/clean.out" || {
    echo "FAIL: chaos run did not end consistent" >&2
    cat "$dir/clean.out" >&2; exit 1; }
  if ls "$dir"/incident_cli_*.vsi > /dev/null 2>&1; then
    echo "FAIL: clean chaos run captured an incident" >&2; exit 1
  fi
  # Same faults plus a seeded corruption: the incident bundle must embed
  # the fault plan and --replay to the exact same violation.
  printf 'world 9 3\nevader 4 4\nmonitor 0 cadence\nfault %s\nwalk 0 20 42\ncorrupt 0 1 1\nquit\n' \
    "$dir/chaos.plan" |
    "$root/build-check/tools/vinestalk_cli" --incident-dir "$dir" \
    > "$dir/violation.out"
  local bundle="$dir/incident_cli_0.vsi"
  [ -f "$bundle" ] || { echo "FAIL: no chaos incident bundle in $dir" >&2
    cat "$dir/violation.out" >&2; exit 1; }
  "$root/build-check/tools/vinestalk_trace" incident "$bundle" --replay \
    > "$dir/replay.out"
  grep -q "exact" "$dir/replay.out" || {
    echo "FAIL: chaos incident did not replay exactly" >&2
    cat "$dir/replay.out" >&2; exit 1; }
  rm -rf "$dir"
  echo "Chaos stage clean (deadline met, fault incident replayed exactly)."
}

run_audit() {
  echo "== stage 5: per-operation cost audit end-to-end =="
  cmake -B "$root/build-check" -S "$root" > /dev/null
  cmake --build "$root/build-check" -j "$jobs" \
    --target example_quickstart vinestalk_cli vinestalk_trace
  local dir
  dir="$(mktemp -d /tmp/vs_audit.XXXXXX)"
  # A traced quickstart must attribute every cost event to an operation
  # and sit inside the Theorem 4.9/5.2 slack (exit 2 past it).
  VS_TRACE="$dir/quickstart.vst" \
    "$root/build-check/examples/example_quickstart" > /dev/null
  "$root/build-check/tools/vinestalk_trace" audit "$dir/quickstart.vst" \
    --side 27 --base 3 > "$dir/quickstart.audit"
  grep -q "attributed    100.000%" "$dir/quickstart.audit" || {
    echo "FAIL: quickstart audit not fully attributed" >&2
    cat "$dir/quickstart.audit" >&2; exit 1; }
  grep -q "conservation:   OK" "$dir/quickstart.audit" || {
    echo "FAIL: quickstart audit conservation violated" >&2
    cat "$dir/quickstart.audit" >&2; exit 1; }
  grep -q "all operations within slack" "$dir/quickstart.audit" || {
    echo "FAIL: quickstart audit outside slack" >&2
    cat "$dir/quickstart.audit" >&2; exit 1; }
  # A traced chaos-plan run must bill its stabilizer traffic to heartbeat
  # and repair operations — nothing may leak into background.
  cat > "$dir/chaos.plan" <<'EOF'
faultplan v1
seed 77
crash 40 at 1000000
crash 13 at 2000000
loss from 1500000 until 2500000 rate 0.05
recovery base 1000000 per-fault 200000
end
EOF
  printf 'world 9 3\ntrace on\nevader 4 4\nfault %s\nwalk 0 20 42\ncheck 0\ntrace dump %s\naudit %s\nquit\n' \
    "$dir/chaos.plan" "$dir/chaos.vst" "$dir/chaos.vst" |
    "$root/build-check/tools/vinestalk_cli" > "$dir/chaos.audit"
  grep -q "attributed    100.000%" "$dir/chaos.audit" || {
    echo "FAIL: chaos audit not fully attributed" >&2
    cat "$dir/chaos.audit" >&2; exit 1; }
  grep -q "background    0$" "$dir/chaos.audit" || {
    echo "FAIL: chaos audit leaked cost into background ops" >&2
    cat "$dir/chaos.audit" >&2; exit 1; }
  grep -q "^  hb " "$dir/chaos.audit" || {
    echo "FAIL: chaos audit shows no heartbeat operations" >&2
    cat "$dir/chaos.audit" >&2; exit 1; }
  grep -q "^  repair " "$dir/chaos.audit" || {
    echo "FAIL: chaos audit shows no repair operations" >&2
    cat "$dir/chaos.audit" >&2; exit 1; }
  rm -rf "$dir"
  echo "Audit stage clean (100% attributed, hb/repair billed, in slack)."
}

run_telemetry() {
  echo "== stage 6: time-series telemetry end-to-end =="
  cmake -B "$root/build-check" -S "$root" > /dev/null
  cmake --build "$root/build-check" -j "$jobs" \
    --target example_quickstart vinestalk_cli vinestalk_trace vinestalk_top
  local dir
  dir="$(mktemp -d /tmp/vs_telemetry.XXXXXX)"
  # Both viewers must read a telemetered quickstart's finished stream.
  VS_TELEMETRY="$dir/quickstart.vstelem" \
    "$root/build-check/examples/example_quickstart" > /dev/null
  "$root/build-check/tools/vinestalk_trace" telemetry \
    "$dir/quickstart.vstelem" > /dev/null
  "$root/build-check/tools/vinestalk_top" "$dir/quickstart.vstelem" --once \
    > /dev/null
  # The CSV takes its column names from the stream's header, and every row
  # carries one value per column.
  "$root/build-check/tools/vinestalk_trace" telemetry \
    "$dir/quickstart.vstelem" --csv > "$dir/quickstart.csv"
  head -1 "$dir/quickstart.csv" |
    grep -q "^t_us,events_fired,msgs_total,work_total," || {
    echo "FAIL: telemetry CSV header does not start with the core series" >&2
    head -1 "$dir/quickstart.csv" >&2; exit 1; }
  awk -F, 'NR == 1 { n = NF } NF != n { bad = 1 } END { exit bad || NR < 2 }' \
    "$dir/quickstart.csv" || {
    echo "FAIL: telemetry CSV rows do not match the header's columns" >&2
    exit 1; }
  # A telemetered chaos-plan run must show its stabilizer traffic —
  # heartbeat and repair ledger series — in the telemetry summary.
  cat > "$dir/chaos.plan" <<'EOF'
faultplan v1
seed 77
crash 40 at 1000000
crash 13 at 2000000
loss from 1500000 until 2500000 rate 0.05
recovery base 1000000 per-fault 200000
end
EOF
  printf 'world 9 3\ntelemetry %s 10000\nevader 4 4\nfault %s\nwalk 0 20 42\ncheck 0\ntelemetry off\nquit\n' \
    "$dir/chaos.vstelem" "$dir/chaos.plan" |
    "$root/build-check/tools/vinestalk_cli" > /dev/null
  "$root/build-check/tools/vinestalk_trace" telemetry "$dir/chaos.vstelem" \
    > "$dir/chaos.summary"
  grep -Eq "ledger_hb_msgs: [1-9]" "$dir/chaos.summary" || {
    echo "FAIL: chaos telemetry shows no heartbeat traffic" >&2
    cat "$dir/chaos.summary" >&2; exit 1; }
  grep -Eq "ledger_repair_msgs: [1-9]" "$dir/chaos.summary" || {
    echo "FAIL: chaos telemetry shows no repair traffic" >&2
    cat "$dir/chaos.summary" >&2; exit 1; }
  # The Prometheus snapshot must parse as text exposition format, write
  # each value once (one TYPE line per family, no sample twice) and carry
  # the C-gcast drop and loss rows of the metrics table.
  VS_TELEMETRY="$dir/prom.vstelem" VS_PROMETHEUS="$dir/prom.txt" \
    "$root/build-check/examples/example_quickstart" > /dev/null
  python3 - "$dir/prom.txt" <<'EOF'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty Prometheus snapshot"
metric = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?$')
names = set()
samples = set()
families = set()
for ln in lines:
    if ln.startswith("# TYPE "):
        family = ln.split()[2]
        assert family not in families, f"second TYPE line for {family}"
        families.add(family)
        continue
    if not ln or ln.startswith("#"):
        continue
    assert metric.match(ln), f"bad exposition line: {ln!r}"
    sample = ln.rsplit(" ", 1)[0]
    assert sample not in samples, f"sample written twice: {sample}"
    samples.add(sample)
    names.add(ln.split("{")[0].split(" ")[0])
assert any(n.startswith("vinestalk_telemetry_") for n in names), names
assert any(n.endswith("_bucket") for n in names), "no histogram series"
for n in ("vinestalk_telemetry_cgcast_dropped",
          "vinestalk_telemetry_cgcast_lost"):
    assert n in names, f"missing {n}"
EOF
  rm -rf "$dir"
  echo "Telemetry stage clean (stream readable, hb/repair visible," \
       "Prometheus valid)."
}

run_perf() {
  echo "== stage 7: CPU profiler + bench_micro =="
  cmake -B "$root/build-check" -S "$root" > /dev/null
  cmake --build "$root/build-check" -j "$jobs" \
    --target example_quickstart vinestalk_trace vinestalk_top bench_micro
  local dir
  dir="$(mktemp -d /tmp/vs_perf.XXXXXX)"
  # A profiled quickstart must drop a VSPROF1 sidecar (plus its JSON twin)
  # that folds into a well-formed flamegraph: `domain[;domain] <ns>` lines.
  VS_PROFILE="$dir/q.vsprof" \
    "$root/build-check/examples/example_quickstart" > /dev/null
  [ -s "$dir/q.vsprof" ] || { echo "FAIL: no profile sidecar" >&2; exit 1; }
  [ -s "$dir/q.vsprof.json" ] || {
    echo "FAIL: no profile JSON twin" >&2; exit 1; }
  "$root/build-check/tools/vinestalk_trace" flame "$dir/q.vsprof" \
    > "$dir/q.folded"
  grep -Eq '^[a-z_]+(;[a-z_]+)* [0-9]+$' "$dir/q.folded" || {
    echo "FAIL: flamegraph fold is malformed" >&2
    cat "$dir/q.folded" >&2; exit 1; }
  # The profiler must never touch a deterministic artifact: stdout, the
  # VSTRACE1 trace, and the VSTELEM1 stream stay byte-identical with
  # profiling on vs off. (Stdout is compared from untraced runs — a traced
  # run prints its own trace path, which legitimately differs per run.)
  "$root/build-check/examples/example_quickstart" > "$dir/base.out"
  VS_TRACE="$dir/base.vst" VS_TELEMETRY="$dir/base.vstelem" \
    "$root/build-check/examples/example_quickstart" > /dev/null
  VS_PROFILE="$dir/p.vsprof" \
    "$root/build-check/examples/example_quickstart" > "$dir/p.out"
  diff "$dir/base.out" "$dir/p.out" || {
    echo "FAIL: profiling changed stdout" >&2; exit 1; }
  VS_PROFILE="$dir/pt.vsprof" \
    VS_TRACE="$dir/p.vst" VS_TELEMETRY="$dir/p.vstelem" \
    "$root/build-check/examples/example_quickstart" > /dev/null
  cmp "$dir/base.vst" "$dir/p.vst" || {
    echo "FAIL: profiling changed the trace" >&2; exit 1; }
  cmp "$dir/base.vstelem" "$dir/p.vstelem" || {
    echo "FAIL: profiling changed telemetry" >&2; exit 1; }
  # bench_micro, briefly, from an empty directory: it must exit 0 (the
  # slow every-change watchdog case is left out), its enabled-ledger case
  # must count ledger entries, the daemon's delay mix must stay on the
  # event queue's delay classes (no fallback-heap push), the network
  # construction case must run at every size and measure its heap, and it
  # must leave no file behind.
  mkdir "$dir/micro"
  (cd "$dir/micro" &&
    "$root/build-check/bench/bench_micro" --benchmark_min_time=0.01 \
      --benchmark_filter='-BM_MoveAndQuiesceWatched/2' \
      --benchmark_format=json > "$dir/micro.json")
  python3 - "$dir/micro.json" <<'EOF'
import json, sys
runs = {b["name"]: b for b in json.load(open(sys.argv[1]))["benchmarks"]}
ledgered = runs.get("BM_MoveAndQuiesceLedgered/2")
assert ledgered is not None, "BM_MoveAndQuiesceLedgered/2 did not run"
assert ledgered["ledger_entries"] > 0, "the enabled ledger counted no entries"
mix = runs.get("BM_SchedulerDaemonMix/100000")
assert mix is not None, "BM_SchedulerDaemonMix/100000 did not run"
assert mix["fallback_pushes"] == 0, \
    "the daemon delay mix hit the fallback heap: %r" % mix["fallback_pushes"]
for side in (27, 81, 243):
    net = runs.get("BM_NetworkConstruction/%d" % side)
    assert net is not None, "BM_NetworkConstruction/%d did not run" % side
    assert net["bytes_per_region"] > 0, \
        "BM_NetworkConstruction/%d measured no heap" % side
EOF
  [ -z "$(ls -A "$dir/micro")" ] || {
    echo "FAIL: bench_micro left files behind" >&2
    ls -A "$dir/micro" >&2; exit 1; }
  rm -rf "$dir"
  echo "Perf stage clean (sidecar folds, artifacts profile-invariant," \
       "bench_micro clean)."
}

run_serve() {
  echo "== stage 8: streaming ingest daemon end-to-end =="
  cmake -B "$root/build-check" -S "$root" > /dev/null
  cmake --build "$root/build-check" -j "$jobs" \
    --target vinestalk_served vinestalk_top vinestalk_trace
  local dir
  dir="$(mktemp -d /tmp/vs_serve.XXXXXX)"
  cat > "$dir/chaos.plan" <<'EOF'
# check.sh serve chaos: a loss window and a jitter window across the
# load burst. The daemon arms the plan once its objects are placed, past
# 300,000 us of virtual time, so both windows open after that. C-gcast
# does not retransmit: the heartbeat stabilizer repairs what a lost
# message breaks, so the monitored run must stay incident-free.
faultplan v1
seed 77
loss from 330000 until 348000 rate 0.05
jitter from 333000 until 353000 rate 0.2 advance 500
recovery base 1000000 per-fault 200000
end
EOF
  # A 2×-capacity load burst under chaos: the ladder must reach tier 3,
  # the conservation identity must hold exactly, and the watchdog must
  # see zero violations — graceful degradation, not collapse.
  "$root/build-check/tools/vinestalk_served" \
    --side 27 --base 3 --objects 4 --queues 4 --queue-capacity 64 \
    --load 32 --overdrive 2 --seed 42 --find-every 8 --monitor \
    --heartbeat-us 20000 \
    --fault-plan "$dir/chaos.plan" --incident-dir "$dir" \
    --telemetry "$dir/serve.vstelem" --prometheus "$dir/prom.txt" \
    > "$dir/load.out"
  expect_faults "$dir/prom.txt" "the serve chaos session"
  grep -q "max tier 3" "$dir/load.out" || {
    echo "FAIL: overload run never reached tier 3" >&2
    cat "$dir/load.out" >&2; exit 1; }
  grep -q "conservation OK" "$dir/load.out" || {
    echo "FAIL: ingest conservation identity violated" >&2
    cat "$dir/load.out" >&2; exit 1; }
  grep -q "watchdog: 0 violation(s)" "$dir/load.out" || {
    echo "FAIL: overload run tripped the watchdog" >&2
    cat "$dir/load.out" >&2; exit 1; }
  if ls "$dir"/incident_served_*.vsi > /dev/null 2>&1; then
    echo "FAIL: overload run captured an incident bundle" >&2; exit 1
  fi
  # The queue/drop series must surface in the Prometheus snapshot and the
  # dashboard must render the ingest panel from the finished stream.
  grep -q "^vinestalk_telemetry_ingest_ingested " "$dir/prom.txt" || {
    echo "FAIL: no ingest series in the Prometheus snapshot" >&2
    cat "$dir/prom.txt" >&2; exit 1; }
  grep -q "^vinestalk_telemetry_ingest_dropped " "$dir/prom.txt" || {
    echo "FAIL: no drop series in the Prometheus snapshot" >&2; exit 1; }
  grep -q "^vinestalk_telemetry_ingest_queue_depth_peak " "$dir/prom.txt" || {
    echo "FAIL: no queue-depth series in the Prometheus snapshot" >&2
    exit 1; }
  "$root/build-check/tools/vinestalk_top" "$dir/serve.vstelem" --once \
    > "$dir/top.out"
  grep -q "ingest:" "$dir/top.out" || {
    echo "FAIL: vinestalk_top renders no ingest panel" >&2
    cat "$dir/top.out" >&2; exit 1; }
  # The summary prints a per-second rate for counter-kind series only; the
  # queue-depth high-water mark is a gauge.
  "$root/build-check/tools/vinestalk_trace" telemetry "$dir/serve.vstelem" \
    > "$dir/serve.summary"
  grep -Eq "^  ingest_queue_depth_peak: [0-9]+$" "$dir/serve.summary" || {
    echo "FAIL: the queue-depth peak line is missing or carries a rate" >&2
    cat "$dir/serve.summary" >&2; exit 1; }
  # Determinism: a captured live session must replay to a byte-identical
  # world trace (fault plans stay off here — channel faults are orthogonal
  # to the capture/replay contract).
  "$root/build-check/tools/vinestalk_served" \
    --side 27 --base 3 --objects 4 --queues 4 --queue-capacity 64 \
    --load 24 --overdrive 2 --seed 42 --find-every 8 \
    --capture "$dir/session.vsingest" --trace "$dir/live.vst" \
    > "$dir/live.out"
  "$root/build-check/tools/vinestalk_served" \
    --side 27 --base 3 --objects 4 --queues 4 --queue-capacity 64 \
    --replay "$dir/session.vsingest" --trace "$dir/replay.vst" \
    > "$dir/replay.out"
  cmp "$dir/live.vst" "$dir/replay.vst" || {
    echo "FAIL: replay trace differs from live" >&2; exit 1; }
  # The replay's summary must report the live session: its max tier, shed
  # tier entries and queue-depth peak (both judged on drained batches),
  # applied/suppressed split and finds. The ingested and dropped counts (a
  # replay has no reader-side drops) and the round count (a replay adds the
  # final drain's marker) are left out.
  local s
  for s in live replay; do
    sed -n -e 's/^rounds: [0-9]* \((max tier [0-9]*)\)$/\1/p' \
      -e '/^shed tier entries: /p' \
      -e 's/^ingest: [0-9]* ingested = \([0-9]* applied + [0-9]* suppressed\) .*/\1/p' \
      -e '/^finds: /p' "$dir/$s.out" > "$dir/$s.summary"
  done
  if [ "$(wc -l < "$dir/live.summary")" -ne 4 ] ||
     ! grep -q "(max tier 3)" "$dir/live.summary" ||
     ! cmp -s "$dir/live.summary" "$dir/replay.summary"; then
    echo "FAIL: replay summary does not report the live session" >&2
    diff "$dir/live.out" "$dir/replay.out" >&2 || true
    exit 1
  fi
  rm -rf "$dir"
  echo "Serve stage clean (overload incident-free, identity exact," \
       "capture replays byte-identically with the live summary)."
}

run_slo() {
  echo "== stage 9: request-level SLO observability =="
  cmake -B "$root/build-check" -S "$root" > /dev/null
  cmake --build "$root/build-check" -j "$jobs" \
    --target vinestalk_served vinestalk_trace vinestalk_top
  local dir
  dir="$(mktemp -d /tmp/vs_slo.XXXXXX)"
  cat > "$dir/loose.slo" <<'EOF'
slo v1
objective find p99 <= 500000000ns
availability >= 99.900
window short 300000000us long 3600000000us
burn fast 14.40 slow 6.00
clock virtual
end
EOF
  cat > "$dir/tight.slo" <<'EOF'
slo v1
objective find p99 <= 1ns
window short 300000000us long 3600000000us
burn fast 1.00 slow 1.00
clock virtual
end
EOF
  local args=(--side 27 --base 3 --objects 4 --queues 4 --queue-capacity 64
              --load 24 --overdrive 2 --seed 42 --find-every 8)
  # Quarantine doctrine: arming an SLO spec must not move a single byte in
  # any deterministic artifact — stdout, VSTRACE1, VSTELEM1, VSINGEST1.
  # All SLO chatter rides stderr and the sidecar.
  "$root/build-check/tools/vinestalk_served" "${args[@]}" \
    --trace "$dir/off.vst" --telemetry "$dir/off.vstelem" \
    --capture "$dir/off.vsingest" > "$dir/off.out" 2> /dev/null
  "$root/build-check/tools/vinestalk_served" "${args[@]}" \
    --trace "$dir/on.vst" --telemetry "$dir/on.vstelem" \
    --capture "$dir/on.vsingest" \
    --slo "$dir/loose.slo" --slo-out "$dir/on.vsslo" \
    --prometheus "$dir/on.prom" > "$dir/on.out" 2> /dev/null
  diff "$dir/off.out" "$dir/on.out" || {
    echo "FAIL: SLO monitoring changed stdout" >&2; exit 1; }
  cmp "$dir/off.vst" "$dir/on.vst" || {
    echo "FAIL: SLO monitoring changed the trace" >&2; exit 1; }
  cmp "$dir/off.vstelem" "$dir/on.vstelem" || {
    echo "FAIL: SLO monitoring changed telemetry" >&2; exit 1; }
  cmp "$dir/off.vsingest" "$dir/on.vsingest" || {
    echo "FAIL: SLO monitoring changed the capture" >&2; exit 1; }
  # The sidecar + JSON twin carry the report; both renderers must read it,
  # and the top panel must join it with the telemetry stream. The serve
  # block (wire errors, retry-after) and the SLO gauges must surface in
  # the Prometheus snapshot.
  [ -s "$dir/on.vsslo" ] || { echo "FAIL: no SLO sidecar" >&2; exit 1; }
  [ -s "$dir/on.vsslo.json" ] || {
    echo "FAIL: no SLO JSON twin" >&2; exit 1; }
  "$root/build-check/tools/vinestalk_trace" slo "$dir/on.vsslo" \
    > "$dir/slo.summary"
  grep -q "VSSLO1 report:" "$dir/slo.summary" || {
    echo "FAIL: vinestalk_trace cannot summarize the sidecar" >&2
    cat "$dir/slo.summary" >&2; exit 1; }
  "$root/build-check/tools/vinestalk_trace" slo "$dir/on.vsslo" --csv \
    > "$dir/slo.csv"
  head -1 "$dir/slo.csv" | grep -q "^series,le_ns,count$" || {
    echo "FAIL: SLO CSV header malformed" >&2; exit 1; }
  "$root/build-check/tools/vinestalk_top" "$dir/on.vstelem" --once \
    --slo "$dir/on.vsslo" > "$dir/top.out"
  grep -q "slo (virtual windows" "$dir/top.out" || {
    echo "FAIL: vinestalk_top renders no SLO panel" >&2
    cat "$dir/top.out" >&2; exit 1; }
  grep -q "wire errors" "$dir/top.out" || {
    echo "FAIL: vinestalk_top ingest line shows no wire-error tally" >&2
    cat "$dir/top.out" >&2; exit 1; }
  grep -q "^vinestalk_slo_requests_total" "$dir/on.prom" || {
    echo "FAIL: no SLO series in the Prometheus snapshot" >&2
    cat "$dir/on.prom" >&2; exit 1; }
  grep -q "^vinestalk_telemetry_ingest_wire_errors " "$dir/on.prom" || {
    echo "FAIL: no wire-error series in the Prometheus snapshot" >&2
    exit 1; }
  grep -q "^vinestalk_telemetry_ingest_retry_after_us " "$dir/on.prom" || {
    echo "FAIL: no retry-after series in the Prometheus snapshot" >&2
    exit 1; }
  # A tight find-p99 objective under 2× overdrive chaos must burn through
  # its budget and fire a replayable incident mid-run — and the burn alert
  # must not disturb the run's own health checks.
  # The plan's windows open after placement, as in the serve stage, and
  # the heartbeat stabilizer repairs what the losses break.
  cat > "$dir/chaos.plan" <<'EOF'
faultplan v1
seed 77
loss from 330000 until 348000 rate 0.05
jitter from 333000 until 353000 rate 0.2 advance 500
recovery base 1000000 per-fault 200000
end
EOF
  "$root/build-check/tools/vinestalk_served" "${args[@]}" --monitor \
    --heartbeat-us 20000 \
    --fault-plan "$dir/chaos.plan" --incident-dir "$dir" \
    --slo "$dir/tight.slo" --prometheus "$dir/burn.prom" \
    > "$dir/burn.out" 2> "$dir/burn.err"
  expect_faults "$dir/burn.prom" "the SLO burn session"
  grep -q "SLO BURN" "$dir/burn.err" || {
    echo "FAIL: tight objective under overdrive never fired" >&2
    cat "$dir/burn.err" >&2; exit 1; }
  grep -q "conservation OK" "$dir/burn.out" || {
    echo "FAIL: SLO burn run broke the conservation identity" >&2
    cat "$dir/burn.out" >&2; exit 1; }
  [ -f "$dir/incident_slo_0.vsi" ] || {
    echo "FAIL: no SLO incident bundle in $dir" >&2; exit 1; }
  rm -f "$dir"/incident_slo_*.vsi
  # Exemplar → OpId → trace: fire the same objective on a captured,
  # fault-free run; the incident's slowest find exemplar must name an
  # OpId whose span events exist in the live trace, and a replay of the
  # capture must reproduce that trace (and those spans) exactly.
  "$root/build-check/tools/vinestalk_served" "${args[@]}" \
    --incident-dir "$dir" --slo "$dir/tight.slo" \
    --trace "$dir/live.vst" --capture "$dir/session.vsingest" \
    > /dev/null 2> /dev/null
  [ -f "$dir/incident_slo_0.vsi" ] || {
    echo "FAIL: no SLO incident bundle from the captured run" >&2; exit 1; }
  "$root/build-check/tools/vinestalk_trace" incident \
    "$dir/incident_slo_0.vsi" > "$dir/incident.out"
  grep -q "slo exemplars" "$dir/incident.out" || {
    echo "FAIL: incident bundle carries no SLO exemplars" >&2
    cat "$dir/incident.out" >&2; exit 1; }
  local find_id
  find_id="$(grep -oE 'find#[0-9]+' "$dir/incident.out" | head -1 |
             cut -d# -f2 || true)"
  [ -n "$find_id" ] || {
    echo "FAIL: no find exemplar OpId in the incident" >&2
    cat "$dir/incident.out" >&2; exit 1; }
  "$root/build-check/tools/vinestalk_trace" spans "$dir/live.vst" \
    "$find_id" > "$dir/spans.live"
  grep -q "not present" "$dir/spans.live" && {
    echo "FAIL: exemplar find #$find_id absent from the live trace" >&2
    cat "$dir/spans.live" >&2; exit 1; }
  "$root/build-check/tools/vinestalk_served" \
    --side 27 --base 3 --objects 4 --queues 4 --queue-capacity 64 \
    --replay "$dir/session.vsingest" --trace "$dir/replay.vst" > /dev/null
  cmp "$dir/live.vst" "$dir/replay.vst" || {
    echo "FAIL: replay trace differs from live (SLO-armed) run" >&2
    exit 1; }
  "$root/build-check/tools/vinestalk_trace" spans "$dir/replay.vst" \
    "$find_id" > "$dir/spans.replay"
  diff "$dir/spans.live" "$dir/spans.replay" || {
    echo "FAIL: exemplar spans differ between live and replay" >&2
    exit 1; }
  rm -rf "$dir"
  echo "SLO stage clean (artifacts identical armed vs not, burn" \
       "incident fired, exemplar replayed byte-identically)."
}

run_asan() {
  echo "== stage 10: AddressSanitizer + UndefinedBehaviorSanitizer =="
  cmake -B "$root/build-asan" -S "$root" \
    -DVINESTALK_SANITIZE=address,undefined > /dev/null
  cmake --build "$root/build-asan" -j "$jobs"
  ctest --test-dir "$root/build-asan" --output-on-failure -j "$jobs"
  echo "ASan+UBSan stage clean (full suite, no sanitizer report)."
}

run_debug() {
  echo "== stage 11: Debug build (VS_DCHECKs compiled in) + ctest =="
  cmake -B "$root/build-debug" -S "$root" -DCMAKE_BUILD_TYPE=Debug > /dev/null
  cmake --build "$root/build-debug" -j "$jobs"
  ctest --test-dir "$root/build-debug" --output-on-failure -j "$jobs"
  echo "Debug stage clean (full suite with every VS_DCHECK armed)."
}

case "$stage" in
  all) run_plain; run_tsan; run_monitor; run_chaos; run_audit
       run_telemetry; run_perf; run_serve; run_slo; run_asan; run_debug ;;
  --plain) run_plain ;;
  --tsan) run_tsan ;;
  --monitor) run_monitor ;;
  --chaos) run_chaos ;;
  --audit) run_audit ;;
  --telemetry) run_telemetry ;;
  --perf) run_perf ;;
  --serve) run_serve ;;
  --slo) run_slo ;;
  --asan) run_asan ;;
  --debug) run_debug ;;
  *) echo "usage: tools/check.sh [--plain|--tsan|--monitor|--chaos|--audit|--telemetry|--perf|--serve|--slo|--asan|--debug]" >&2
     exit 2 ;;
esac
echo "check.sh: all stages passed"
