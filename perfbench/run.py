#!/usr/bin/env python3
"""Repository benchmark runner (see perfbench/README.md).

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/pb.exe with dune from the checkout's sources, times the
workload's set-up from outside the process (several spawns, median), runs
the measuring process for --seconds, takes its peak RSS from wait4, and
prints one JSON result as the last line of standard output.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "pb.exe")
WORKLOADS = ("suite", "dense", "population", "litmus")
SETUP_SPAWNS = 20
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# end-to-end metrics: name -> unit
E2E = {"wall_s": "s", "setup_s": "s", "events_per_s": "1/s", "peak_heap_mb": "MB"}

# the per-workload name of events_per_s, as the context line reports it
RATE_NAME = {
    "sim_insns": "sim_insns_per_s",
    "geom_events": "geom_events_per_s",
    "interleavings": "interleavings_per_s",
}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_tree():
    for rel in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, rel)):
            die("%s not found: run from a full checkout of the repository" % rel)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/pb.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e, 1)
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        die("build failed", 1)


def spawn(args, limit_s):
    """Run pb.exe; return (ready time, stdout lines, exit code, maxrss KB)."""
    t0 = time.time()
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    timer = threading.Timer(limit_s, p.kill)
    timer.start()
    ready, lines = None, []
    try:
        for line in p.stdout:
            line = line.rstrip("\n")
            if ready is None and line.startswith("ready "):
                ready = float(line.split()[1]) - t0
            else:
                lines.append(line)
                if line.startswith("pass "):
                    print(line, flush=True)
    finally:
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    return ready, lines, p.returncode, ru.ru_maxrss


def setup_samples(wl, n):
    """Spawn pb.exe setup n times; return the spawn -> ready times."""
    setups = []
    for _ in range(n):
        ready, _, code, _ = spawn(["setup"] + wl, 30)
        if code != 0 or ready is None:
            die("set-up of %s failed (exit %d)" % (wl[1], code), 1)
        setups.append(ready)
    return setups


def measure(workload, seed, seconds, trace):
    start = time.time()
    wl = ["--workload", workload]
    # half the set-up spawns before the measuring process and half after,
    # so that the median spans the run, not one moment of the host
    setups = setup_samples(wl, SETUP_SPAWNS // 2)
    # the whole run, build aside, must end within 180 s
    limit = 165.0 - (time.time() - start)
    ready, lines, code, maxrss_kb = spawn(
        ["run"] + wl + ["--seconds", str(seconds), "--trace", str(trace)], limit)
    results = [l for l in lines if l.startswith("PBRESULT ")]
    if code != 0 or ready is None or not results:
        die("measuring process of %s failed (exit %d)" % (workload, code), 1)
    setups.append(ready)
    setups += setup_samples(wl, SETUP_SPAWNS // 2)
    r = json.loads(results[-1][len("PBRESULT "):])

    if trace:
        metrics = r["per_layer"]
    else:
        values = {
            "wall_s": r["wall_s"],
            "setup_s": statistics.median(setups),
            "events_per_s": r["events_per_s"],
            "peak_heap_mb": r["top_heap_mb"],
        }
        metrics = {k: {"value": v, "unit": E2E[k]} for k, v in values.items()}
    attempted, failed = r["attempted"], r["failed"]
    context = {
        "workload": workload,
        "seed": seed,
        "passes": r["passes"],
        "traced_passes": r["traced_passes"],
        "walls_s": r["walls"],
        "median_wall_s": r["median_wall_s"],
        "fail_frac": failed / attempted,
        "digest": r["digest"],
        "best_pass_s": r["best_pass_s"],
        "host_factor_s": r["host_factor_s"],
        RATE_NAME[r["event_unit"]]: r["events_per_s"],
        "setup_samples_s": setups,
        "peak_rss_mb": maxrss_kb / 1024.0,
        "modelled": r["modelled"],
    }
    if trace:
        context["ns_source"] = r["ns_source"]
    print("context " + json.dumps(context), flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


def self_test():
    """The benchmark's own checks: pb.exe selftest, then BENCHMARK.json
    against the metric names run.py and pb.exe actually print."""
    ok = subprocess.run([EXE, "selftest"], cwd=ROOT).returncode == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = subprocess.run([EXE, "names"], cwd=ROOT, capture_output=True,
                           text=True, check=True).stdout.split("\n")
    printed = [tuple(l.split()) for l in names if l]
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    checks = [
        (all(NAME_RE.match(m["name"]) for m in
             bench["end_to_end"] + bench["per_layer"] + bench["workloads"]),
         "every BENCHMARK.json name matches [A-Za-z0-9_.-]+"),
        (declared == printed,
         "BENCHMARK.json per_layer matches the metrics pb.exe prints"),
        (e2e == E2E, "BENCHMARK.json end_to_end matches the metrics run.py prints"),
        ([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
         "BENCHMARK.json workloads are " + ", ".join(WORKLOADS)),
    ]
    for good, what in checks:
        print("%s %s" % ("ok  " if good else "FAIL", what))
        ok = ok and good
    print("self-test: " + ("all ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    check_tree()
    if not a.self_test and a.workload is None:
        die("--workload is required")
    build()
    if a.self_test:
        self_test()
    measure(a.workload, a.seed, a.seconds, a.trace)


if __name__ == "__main__":
    main()
