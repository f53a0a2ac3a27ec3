#!/usr/bin/env python3
"""racellm benchmark: one command for every workload.

    python3 racebench/run.py --workload analyze_cold --seed 1 --seconds 20 --trace 0
    python3 racebench/run.py --all [--seed 1] [--seconds 20]
    python3 racebench/run.py --repeat 5 --workload fix_mixed [--seconds 20]

Run from the repository root. It builds `racellm-cli` and the measuring
tool (`racebench/Cargo.toml`) in release mode, runs the workload, and
prints every metric by name and unit. The last line of a single run is
the JSON result `{"correct", "attempted", "failed", "metrics"}`; the exit
code is non-zero when any output was wrong or a steadiness guard failed.
See racebench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["analyze_cold", "fix_mixed", "paper_tables"]
# One run's limit: past it the run and every process it started are killed.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Build the server binary and the measuring tool; return their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.exit("racebench: run from a racellm checkout (no Cargo.toml/crates at %s)" % ROOT)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    env.pop("RACELLM_WORKERS", None)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "racellm", "--bin", "racellm-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            sys.exit("racebench: build failed: %s" % " ".join(cmd))
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "racellm-cli"), os.path.join(rel, "racebench")


def source_digest():
    """sha256 over the program's sources, so results name the code they measured."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", "shims"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in files if f.endswith((".rs", ".toml"))]
    paths += [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock") if os.path.isfile(os.path.join(ROOT, f))]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(bins, workload, seed, seconds, trace):
    """One run; returns (exit code, human lines, provenance, result).

    The tool runs in a process group of its own. On timeout the whole
    group (the tool, its server and any tables child) is killed and
    reaped, and the run counts as failed with no result."""
    server, tool = bins
    cmd = [tool, "run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--server", server]
    env = dict(os.environ)
    env.pop("RACELLM_WORKERS", None)
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    kill_group(p)
    if stdout is None:
        return 124, ["racebench: %s seed %d timed out after %d s" % (workload, seed, RUN_TIMEOUT_S)], {}, None
    lines = stdout.splitlines()
    prov, result = {}, None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    for line in lines:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
    human = [l for l in lines if not l.startswith("provenance ")]
    return p.returncode, human, prov, result


def kill_group(p):
    """Kill whatever is left of the process group `p` leads, reap `p`, and
    wait until the group is gone. Members other than `p` were re-parented
    away from us, so they cannot be waited for directly."""
    for sig in [signal.SIGKILL] + [0] * 200:
        try:
            os.killpg(p.pid, sig)
        except ProcessLookupError:
            break
        p.wait()
        if sig == 0:
            time.sleep(0.05)
    p.wait()
    p.stdout.close()


def save(name, obj):
    d = os.path.join(ROOT, ".bench_results")
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, name), "w") as f:
        json.dump(obj, f, indent=1)


def single(args, bins, meta):
    code, human, prov, result = run_once(bins, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        print("\n".join(human))
        sys.exit(code or 1)
    prov.update(meta)
    for line in human:
        print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    save("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace), {"provenance": prov, "result": result})
    print(json.dumps(result))
    sys.exit(code)


def all_workloads(args, bins, meta):
    """Every workload end to end (and traced with --trace 1); exit non-zero on any failure."""
    worst = 0
    summary = {}
    for w in WORKLOADS:
        code, human, prov, result = run_once(bins, w, args.seed, args.seconds, args.trace)
        print("== %s (seed %d) ==" % (w, args.seed))
        print("\n".join(human))
        if result is None:
            worst = worst or code or 1
            continue
        prov.update(meta)
        summary[w] = {"provenance": prov, "result": result}
        worst = worst or code
    save("all-seed%d-trace%d.json" % (args.seed, args.trace), summary)
    print(json.dumps({w: {k: v["value"] for k, v in s["result"]["metrics"].items()} for w, s in summary.items()}))
    sys.exit(worst)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def repeat(args, bins, meta):
    """Two sets of runs on one build, seeds 1..N in each; per metric each set's
    quartiles, spread (IQR / median) and the gap between the medians."""
    workloads = [args.workload] if args.workload else WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    report, worst = {}, 0
    for w in workloads:
        sets, steal = [], []
        for s in range(2):
            vals = {}
            for seed in range(1, args.repeat + 1):
                code, human, prov, result = run_once(bins, w, seed, args.seconds, 0)
                if result is None or code != 0:
                    print("\n".join(human))
                    worst = worst or code or 1
                    continue
                steal.append(prov.get("host_steal_pct", 0.0))
                for k, v in result["metrics"].items():
                    vals.setdefault(k, []).append(v["value"])
            sets.append(vals)
        print("== %s: two sets of %d seeds (host steal per run: median %.1f%%, max %.1f%%) =="
              % (w, args.repeat, statistics.median(steal or [0.0]), max(steal or [0.0])))
        print("%-18s %12s %12s %12s %8s | %12s %8s | %8s %6s" % ("metric", "q1", "median", "q3", "spread", "median2", "spread2", "gap", "bound"))
        report[w] = {}
        for k in sorted(sets[0]):
            a, b = sets[0][k], sets[1].get(k, [])
            if not b:
                continue
            q1, m1, q3 = quartiles(a)
            r1, m2, r3 = quartiles(b)
            sp1 = (q3 - q1) / m1 if m1 else float("inf")
            sp2 = (r3 - r1) / m2 if m2 else float("inf")
            worse = (m2 - m1) if better.get(k) == "lower" else (m1 - m2)
            gap = worse / m1 if m1 else 0.0
            print("%-18s %12.5g %12.5g %12.5g %8.4f | %12.5g %8.4f | %8.4f %6s" % (k, q1, m1, q3, sp1, m2, sp2, gap, bounds.get(k, "-")))
            report[w][k] = {"set1": a, "set2": b, "spread1": sp1, "spread2": sp2, "gap": gap, "bound": bounds.get(k)}
        report[w]["host_steal_pct"] = steal
    save("repeat.json", {"meta": meta, "report": report})
    sys.exit(worst)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--repeat", type=int, default=0, help="same-build repeatability: two sets of N seeds")
    args = p.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if not (args.all or args.repeat or args.workload):
        p.error("give --workload, --all or --repeat")
    bins = build()
    meta = {"git_revision": git_revision(), "source_digest": source_digest(), "run_seconds": args.seconds}
    if args.repeat:
        repeat(args, bins, meta)
    elif args.all:
        all_workloads(args, bins, meta)
    else:
        single(args, bins, meta)


if __name__ == "__main__":
    main()
