#!/usr/bin/env python3
"""psdbench: build the benchmark, run one workload, print its record.

    python3 psdbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 psdbench/run.py --steadiness 10 [--workload serve] [--seconds 30]
    python3 psdbench/run.py --test

A run prints a table of every metric (name, value, unit, sample count) and
the output checks, then one provenance record (JSON), then, as the last
line, the result object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.

--steadiness K runs each workload K times on seeds 1..K and prints, per
end-to-end metric, the median, the quartiles and the spread (q3 - q1) /
median against the metric's bound.  --test builds and runs the tests of
the benchmark's own logic.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("psdbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "psdbench")


def build(targets):
    """Configure (once) and build; all tool output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "psd.hpp")):
        fail("library sources not found at %s" % os.path.join(ROOT, "src"))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr)
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("PSDBENCH_COMMIT", "unknown")


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail("benchmark binary exited with %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("benchmark binary printed nothing")
    return json.loads(lines[-1])


def provenance(raw, workload, seed, trace):
    build_type = raw["info"].get("build_type", "unknown")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": raw["info"].get("compiler", "unknown"),
        "build_type": build_type,
        "release_build": build_type == "Release",
        "git_commit": git_commit(),
    }


def result_line(raw, spec, trace):
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for name in names:
        m = raw["metrics"].get(name)
        if m is None or m["value"] is None:
            fail("metric %s missing or not finite" % name)
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def print_table(raw):
    print("%-40s %16s %-8s %12s" % ("metric", "value", "unit", "samples"))
    for name, m in raw["metrics"].items():
        value = "null" if m["value"] is None else "%.6g" % m["value"]
        print("%-40s %16s %-8s %12d" % (name, value, m["unit"], m["samples"]))
    for c in raw["checks"]:
        print("check %-40s %s %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                     c["detail"]))


def single_run(args, spec):
    binary = os.path.join(build(["psdbench"]), "psdbench")
    raw = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    prov = provenance(raw, args.workload, args.seed, args.trace)
    if not prov["release_build"]:
        print("WARNING: %s build; timings are not comparable"
              % prov["build_type"])
    print_table(raw)
    record = dict(prov, schema="psdbench.record.v1", correct=raw["correct"],
                  attempted=raw["attempted"], failed=raw["failed"],
                  metrics=raw["metrics"], checks=raw["checks"],
                  info=raw["info"])
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(raw, spec, args.trace)))


def spread_summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def steadiness(args, spec):
    binary = os.path.join(build(["psdbench"]), "psdbench")
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for w in workloads:
        values = {name: [] for name in bounds}
        correct = True
        attempted = failed = 0
        for k in range(args.steadiness):
            raw = run_binary(binary, w, args.first_seed + k, args.seconds, 0)
            correct = correct and raw["correct"]
            attempted += raw["attempted"]
            failed += raw["failed"]
            line = result_line(raw, spec, 0)
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
            print("%s seed %d: %s" % (w, args.first_seed + k, json.dumps(
                {n: v["value"] for n, v in line["metrics"].items()})),
                file=sys.stderr)
        print("== %s (%d runs, all correct: %s, failed %d of %d)" % (
            w, args.steadiness, correct, failed, attempted))
        print("%-16s %12s %12s %12s %8s %6s %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        summary[w] = {"attempted": attempted, "failed": failed}
        for name, vals in values.items():
            med, q1, q3, spread = spread_summary(vals)
            bound = bounds[name]
            # set-up time is judged only on its median, not its spread
            verdict = ("median only" if name == "setup_s" else
                       "steady" if spread < bound / 3 else
                       "within bound" if spread < bound else "TOO NOISY")
            print("%-16s %12.6g %12.6g %12.6g %8.4f %6.3f %s" % (
                name, med, q1, q3, spread, bound, verdict))
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "bound": bound,
                                "values": vals}
    print(json.dumps({"steadiness": summary}))


def self_test():
    out = build(["psdbench_tests"])
    r = subprocess.run([os.path.join(out, "psdbench_tests")])
    sys.exit(r.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="K")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--test", action="store_true")
    args = p.parse_args()
    if args.test:
        self_test()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, names))
    if args.steadiness > 0:
        if args.steadiness < 2:
            fail("--steadiness needs at least 2 runs")
        steadiness(args, spec)
    elif args.workload is None:
        fail("--workload is required")
    else:
        single_run(args, spec)


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(str(e))
