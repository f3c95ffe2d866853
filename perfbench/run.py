#!/usr/bin/env python3
"""Run one workload of the VINESTALK serving benchmark (see README.md here).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the harness and vinestalk_served from the checkout this directory
sits in (into .bench_build/), runs the harness, and for steady_mixed and
burst_shed pipes session 0 through `vinestalk_served --stdin` and checks
that its `ingest:` and `finds:` lines equal the harness's counters. The
last stdout line is the result JSON; a failed correctness gate exits 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("steady_mixed", "steady_observed", "burst_shed")
XCHECK_WORKLOADS = ("steady_mixed", "burst_shed")
BUILD_TIMEOUT_S = 840
HARNESS_TIMEOUT_S = 170
DAEMON_TIMEOUT_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run cmd to completion; subprocess.run kills and reaps it on timeout."""
    try:
        return subprocess.run(cmd, timeout=timeout, text=True,
                              capture_output=True, **kw)
    except subprocess.TimeoutExpired:
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no VINESTALK sources next to %s; nothing to build" % HERE)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "2", "--target",
                  "vs_perfbench", "vinestalk_served"])
    for cmd in steps:
        p = run(cmd, BUILD_TIMEOUT_S)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))


def daemon_cross_check(lines, vsi):
    """Pipe the harness's session 0 through vinestalk_served --stdin."""
    want = {}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key.startswith("xcheck-"):
            want[key[len("xcheck-"):]] = rest
    if (set(want) != {"args", "quiescent", "ingest", "finds"}
            or not os.path.isfile(vsi)):
        print("GATE FAILED cross-check: harness wrote no session to check")
        return False
    with open(vsi, "rb") as stdin:
        p = run([os.path.join(BUILD, "vinestalk", "tools", "vinestalk_served"),
                 "--stdin"] + want["args"].split(), DAEMON_TIMEOUT_S,
                stdin=stdin)
    os.remove(vsi)
    if want["quiescent"] == "0":
        # The harness's bounded drain found a world that never quiesces; the
        # daemon's unbounded run_to_quiescence must fail on it the same way.
        ok = p.returncode == 1 and "event budget exhausted" in p.stderr
        print("cross-check session 0 never quiesces; daemon: exit %d, %s" % (
            p.returncode, p.stderr.strip()[-200:]))
        if not ok:
            print("GATE FAILED cross-check: daemon did not fail to quiesce")
        return ok
    got = {key: line for line in p.stdout.splitlines()
           for key in ("ingest", "finds") if line.startswith(key + ":")}
    ok = p.returncode == 0
    for key in ("ingest", "finds"):
        same = got.get(key) == want[key]
        ok = ok and same
        print("cross-check %-6s harness: %s" % (key, want[key]))
        print("cross-check %-6s daemon:  %s%s" % (
            key, got.get(key, "<missing>"), "" if same else "  <-- MISMATCH"))
    if not ok:
        print("GATE FAILED cross-check against vinestalk_served (exit %d)"
              % p.returncode)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [os.path.join(BUILD, "vs_perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace]
    vsi = None
    if a.trace == "1":
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (a.workload, a.seed))]
    elif a.workload in XCHECK_WORKLOADS:
        vsi = os.path.join(ROOT, ".bench_build",
                           "xcheck-%s-seed%d.vsi" % (a.workload, a.seed))
        cmd += ["--xcheck-out", vsi]
    p = run(cmd, HARNESS_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    lines = p.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(p.stdout)
        fail("harness exited %d without a result" % p.returncode)
    for line in lines[:-1]:
        print(line)
    correct = result["correct"] and p.returncode == 0
    if vsi is not None:
        correct = daemon_cross_check(lines, vsi) and correct
    result["correct"] = correct
    print(json.dumps(result), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
