#!/usr/bin/env python3
"""Repo benchmark: three BERT-inference profiling workloads.

Run from the root of a source checkout:

    python3 _perfbench/run.py --workload bert_hotness_fine --seed 1 --seconds 20 --trace 0

Builds the library and the measurement program (pbench.ml) from source,
runs the workload and prints, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, from a run at
ACCEL_PROF_TELEMETRY=full.  Exits non-zero when any op fails its output
check.  README.md documents the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bert_hotness_fine", "bert_nvbit_records", "bert_trace_roundtrip"]
# Fresh processes timed for setup_s and peak_rss_mb; the median is reported.
COLD_RUNS = 3
# op_s and setup_s are in reference seconds: wall seconds x CALIB_REF_S /
# the calibration loop's time in the same process (pbench.ml, calib).
# The loop takes about this long on an idle 2-core Xeon VM, so there a
# reference second is about a wall second.
CALIB_REF_S = 0.15


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(env):
    for path in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, path)):
            die("not a source checkout: %s is missing" % path)
    env = dict(env, DUNE_CACHE="disabled")
    steps = [
        (["dune", "build", "--root", ROOT, "@install"], env),
        (
            ["dune", "build", "--root", HERE, "./pbench.exe"],
            dict(env, OCAMLPATH=os.path.join(ROOT, "_build", "install", "default", "lib")),
        ),
    ]
    for cmd, step_env in steps:
        # dune's own chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, env=step_env, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(HERE, "_build", "default", "pbench.exe")


def pbench(exe, env, workload, seed, mode, seconds, workdir):
    cmd = [exe, workload, "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--workdir", workdir]
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        die("%s exited with %d" % (" ".join(cmd), p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def git_commit():
    # The checkout need not be a repository; never look above it.
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                           env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def median(ops, key):
    return statistics.median(o["m"].get(key, 0.0) for o in ops)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # The benchmark fixes the profiler's configuration: no inherited knob.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("ACCEL_PROF_", "PASTA_"))}
    exe = build(env)
    workdir = os.path.join(HERE, "_run")
    os.makedirs(workdir, exist_ok=True)

    def run(mode):
        return pbench(exe, env, args.workload, args.seed, mode, args.seconds, workdir)

    if args.trace == 0:
        colds = [run("cold") for _ in range(COLD_RUNS)]
        main_run = run("measure")
        checked = [op for r in colds for op in r["ops"]] + main_run["ops"]
        measured = main_run["ops"][1:]
        cold = [r["ops"][0]["m"] for r in colds]
        values = {
            "setup_s": statistics.median(m["setup_s"] / m["calib_s"] for m in cold) * CALIB_REF_S,
            "op_s": median(measured, "op_s") / median(measured, "calib_s") * CALIB_REF_S,
            "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m in cold),
        }
        wanted = spec["end_to_end"]
    else:
        main_run = run("trace")
        checked = main_run["ops"]
        untraced = [o for o in main_run["ops"][1:] if not o["traced"]]
        measured = [o for o in main_run["ops"] if o["traced"]]
        # Layers and phases a workload never enters read 0.
        values = {m["name"]: median(measured, m["name"]) for m in spec["per_layer"]}
        values["trace_mb"] = median(measured, "trace_bytes") / 1e6
        values["trace_overhead"] = median(measured, "op_s") / median(untraced, "op_s") - 1.0
        wanted = spec["per_layer"]

    failures = [o["failure"] for o in checked if o["failure"]]

    context = dict(main_run["context"], nproc=len(os.sched_getaffinity(0)),
                   domains_in_effect=int(median(measured, "domains")),
                   git_commit=git_commit(), seed=args.seed, workload=args.workload,
                   ops_measured=len(measured))
    print("context: " + json.dumps(context, sort_keys=True))
    for f in failures:
        print("FAILED: " + f)
    # Raw wall-clock samples, in run order.
    for key in ("profile_s", "record_s", "replay_s", "op_s", "calib_s"):
        xs = [o["m"][key] for o in measured if key in o["m"]]
        if xs:
            print("%-10s median %.4f s  min %.4f  max %.4f  (n=%d)"
                  % (key, statistics.median(xs), min(xs), max(xs), len(xs)))
            print("%-10s samples %s" % (key, " ".join("%.4f" % x for x in xs)))
    print("failed_frac %.4f (%d of %d ops)"
          % (len(failures) / len(checked), len(failures), len(checked)))
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
