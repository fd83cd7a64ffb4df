#!/usr/bin/env python3
"""The repository benchmark: simulated-transaction throughput, set-up time and
memory of the Tashkent+ simulator on three fixed workloads.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py compare A.json [A.json ...] --vs B.json [B.json ...]

Run from the repository root. The first run builds simbench from source
into .bench_build/. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run and its untraced twin. Every run checks the
simulator's outputs; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the full result, with its
run stamp, is saved under .bench_build/results/. The exit code is 0 only when
every check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("tpcw-browse-mid", "tpcw-order-uf-churn", "rubis-flash-256r")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
SIMBENCH = os.path.join(BUILD_DIR, "simbench")
SIMBENCH_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds simbench; raises on failure."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


def drive(workload, seed, seconds, mode, scale):
    cmd = [SIMBENCH, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--mode", mode, "--scale", repr(scale)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SIMBENCH_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("simbench exited %d: %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload, seed, seconds, trace, scale, pinned):
    """Runs the benchmark once; returns the result document."""
    errors = []
    if trace:
        # Half the budget untraced, half traced: the untraced twin is the
        # reference for the digest check and the tracing overhead.
        untraced = drive(workload, seed, seconds / 2.0, "untraced", scale)
        traced = drive(workload, seed, seconds / 2.0, "traced", scale)
        docs = [untraced, traced]
        errors += benchlib.check_trace(untraced, traced)
        metrics = benchlib.per_layer(untraced, traced)
    else:
        untraced = drive(workload, seed, seconds, "untraced", scale)
        docs = [untraced]
        metrics = benchlib.end_to_end(untraced)
    for doc in docs:
        errors += benchlib.check_determinism(doc)
        errors += benchlib.check_invariants(workload, doc)
        if pinned is not None:
            errors += benchlib.check_pinned(workload, doc, pinned)
    reps = sum(len(doc["reps"]) for doc in docs)
    return {
        "workload": workload,
        "trace": trace,
        "stamp": benchlib.stamp(ROOT, untraced),
        "outcome": benchlib.pinned_outcome(untraced),
        "unscaled": benchlib.unscaled(untraced),
        "errors": errors,
        "simbench": docs,
        "summary": {
            "correct": not errors,
            "attempted": reps,
            # A rep counts as failed when its run fails an output check.
            "failed": reps if errors else 0,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def save(result, seed):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s_seed%d_trace%d.json"
                        % (result["workload"], seed, result["trace"]))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return path


def compare(a_paths, b_paths):
    """Median and quartiles of every metric on two sets of saved results;
    refuses sets whose host stamps differ."""
    sides = [[benchlib.load_json(p) for p in paths] for paths in (a_paths, b_paths)]
    everything = sides[0] + sides[1]
    ref = everything[0]
    for r in everything[1:]:
        diff = benchlib.comparable(ref["stamp"], r["stamp"])
        if diff:
            log("refusing to compare: stamps differ on %s" % ", ".join(diff))
            return 3
        if (r["workload"], r["trace"]) != (ref["workload"], ref["trace"]):
            log("refusing to compare different workloads or trace modes")
            return 3
    print("workload %s; A commits %s; B commits %s" % (
        ref["workload"], sorted({r["stamp"]["commit"] for r in sides[0]}),
        sorted({r["stamp"]["commit"] for r in sides[1]})))
    print("%-36s %-10s %36s %36s" % ("metric", "unit", "A q1/median/q3 spread",
                                      "B q1/median/q3 spread"))
    for name, m in ref["summary"]["metrics"].items():
        cols = []
        for side in sides:
            values = [r["summary"]["metrics"][name]["value"] for r in side]
            if len(values) > 1:
                cols.append("%.4g/%.4g/%.4g %.3f" % (benchlib.quartiles(values)
                                                     + (benchlib.spread(values),)))
            else:
                cols.append("%.4g" % values[0])
        print("%-36s %-10s %36s %36s" % (name, m["unit"], cols[0], cols[1]))
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", nargs="+")
        p.add_argument("--vs", nargs="+", required=True)
        args = p.parse_args(argv[1:])
        return compare(args.a, args.vs)

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="script length scale in (0, 1]; pinned outcomes apply at 1")
    p.add_argument("--write-pinned", action="store_true",
                   help="store this run's outcome as the pinned one (default seed, scale 1)")
    args = p.parse_args(argv)

    pinned_path = os.path.join(HERE, "pinned.json")
    pinned = benchlib.load_json(pinned_path)
    try:
        build()
        result = run(args.workload, args.seed, args.seconds, args.trace, args.scale,
                     None if args.write_pinned else pinned)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 2

    if args.write_pinned:
        if args.seed != benchlib.DEFAULT_SEED or args.scale != 1.0:
            log("--write-pinned needs the default seed and scale 1")
            return 2
        pinned[args.workload] = result["outcome"]
        with open(pinned_path, "w") as f:
            json.dump(pinned, f, indent=1, sort_keys=True)
            f.write("\n")

    path = save(result, args.seed)
    stamp = result["stamp"]
    print("workload %s seed %d trace %d | cpu %s | nproc %s | %s | %s | %s" % (
        args.workload, args.seed, args.trace, stamp["cpu"], stamp["nproc"],
        stamp["build_type"], stamp["compiler"], stamp["commit"]))
    for name, m in result["summary"]["metrics"].items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  (unscaled: %s)" % ", ".join("%s %.6g" % kv for kv in result["unscaled"].items()))
    for e in result["errors"]:
        print("  CHECK FAILED: " + e)
    print("  result saved to " + os.path.relpath(path, ROOT))
    print(json.dumps(result["summary"]))
    return 0 if result["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
