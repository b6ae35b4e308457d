#!/usr/bin/env python3
"""Fixed-work benchmark for vcmp: build, run one workload, check, report.

    python3 perfbench/run.py --workload combine-1t --seed 11 --seconds 38 --trace 0
    python3 perfbench/run.py --all                 # every workload, a table
    python3 perfbench/run.py --record              # re-record fingerprints

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). The exit code is 0 only when
every operation matched its fingerprint; 1 when some failed; 2 when the
benchmark could not build or run; 3 when the driver refused to measure
(non-Release or sanitizer build, or fewer CPUs than the workload's
threads). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # Leave nothing behind in perfbench/.

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import evaluate  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")
# Margin on top of --seconds for set-up, the warm-up pass and the last
# pass overrunning the measuring window.
DRIVER_MARGIN_S = 120


class BenchError(Exception):
    """The benchmark could not produce a result (exit 2, no result line)."""


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def tool_env(out_dir):
    """Keeps compiler and driver temporaries inside the checkout."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build(out_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no src/ next to perfbench/: nothing to measure")
    env = tool_env(out_dir)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver",
                  "-j", str(max(1, len(os.sched_getaffinity(0))))])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(step))
    return os.path.join(out_dir, "perfbench_driver")


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s %s: %s" % (what, path, e))


def run_driver(driver, out_dir, workload, seed, seconds, trace):
    """Runs one driver process and returns its parsed record."""
    tag = "%s-s%d-t%d" % (workload, seed, trace)
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    scratch = os.path.join(out_dir, "ooc-%d" % os.getpid())
    cmd = [driver, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%s" % ("true" if trace else
                                                     "false"),
           "--scratch-dir=" + scratch]
    if trace:
        cmd.append("--spans-out=" + os.path.join(results,
                                                 tag + "-spans.json"))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=tool_env(out_dir),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=seconds + DRIVER_MARGIN_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out on " + workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode == 3:
        sys.exit(3)  # The driver printed why it refused.
    if done.returncode != 0:
        raise BenchError("driver exited with %d on %s" %
                         (done.returncode, workload))
    record = json.loads(done.stdout)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f)
    return record


def reference_for(fingerprints, workload, seed, record):
    """The recorded fingerprint for the default seed; otherwise the run's
    own first pass."""
    if seed == fingerprints["default_seed"]:
        ops = fingerprints["workloads"].get(workload)
        if ops is None:
            raise BenchError("no recorded fingerprint for " + workload)
        return ops
    return record["passes"][0]["ops"]


def with_units(metrics, declared):
    """Attaches BENCHMARK.json's unit to every metric and checks that the
    run produced exactly the declared set."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise BenchError("metric set differs from BENCHMARK.json: missing "
                         "%s, extra %s" % (missing, extra))
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def measure(driver, out_dir, spec, fingerprints, workload, seed, seconds,
            trace):
    record = run_driver(driver, out_dir, workload, seed, seconds, trace)
    reference = reference_for(fingerprints, workload, seed, record)
    result, details = evaluate.evaluate(record, reference, trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    result["metrics"] = with_units(result["metrics"], declared)
    run = details["run_s"]
    tail = ("p%g=%.4fs" % (run["percentile"], run["percentile_value"])
            if run["percentile"] is not None else
            "no tail percentile: needs %d samples beyond it" %
            evaluate.SAMPLES_BEYOND)
    print("perfbench: workload=%s seed=%d trace=%d nproc=%d "
          "hardware_threads=%d threads=%d build=%s passes=%d "
          "run_s median=%.4fs n=%d %s failed_frac=%.4f" %
          (workload, seed, trace, record["nproc"],
           record["hardware_threads"], record["threads"],
           record["build_type"], len(record["passes"]), run["median"],
           run["n"], tail, details["failed_frac"]))
    by_reason = {}
    for name, why in details["notes"].items():
        by_reason.setdefault(why, []).append(name)
    for why, names in sorted(by_reason.items()):
        print("perfbench: n/a %s: %s" % (", ".join(sorted(names)), why))
    for reason in details["failures"]:
        print("perfbench: FAIL " + reason)
    return result, details


def record_fingerprints(driver, out_dir, spec, fingerprints):
    seed = fingerprints["default_seed"]
    for w in spec["workloads"]:
        record = run_driver(driver, out_dir, w["name"], seed, 0, False)
        ops = record["passes"][0]["ops"]
        _, failed, reasons = evaluate.check_passes(
            record["passes"], ops, record["ops_per_pass"])
        if failed:
            raise BenchError("%s does not repeat: %s" % (w["name"],
                                                         reasons[:3]))
        fingerprints["workloads"][w["name"]] = ops
        log("recorded %s: %d operations" % (w["name"], len(ops)))
    with open(FINGERPRINTS, "w") as f:
        json.dump(fingerprints, f, indent=1, sort_keys=True)
        f.write("\n")


def run_all(driver, out_dir, spec, fingerprints, seed, seconds, trace):
    """Every workload in turn, then one table with units."""
    rows = []
    ok = True
    for w in spec["workloads"]:
        result, details = measure(driver, out_dir, spec, fingerprints,
                                  w["name"], seed, seconds, trace)
        rows.append((w["name"], result, details))
        ok = ok and result["correct"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    for name, result, details in rows:
        print("== %s  failed_frac %.4f ratio (%d/%d)" %
              (name, details["failed_frac"], result["failed"],
               result["attempted"]))
        for m in declared:
            value = result["metrics"][m["name"]]["value"]
            note = " (n/a)" if m["name"] in details["notes"] else ""
            print("   %-30s %16.6g %s%s" % (m["name"], value, m["unit"],
                                            note))
    print(json.dumps({name: result for name, result, _ in rows}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true")
    target.add_argument("--record", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), "benchmark")
        fingerprints = load_json(FINGERPRINTS, "fingerprints")
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError("unknown workload " + args.workload)
        seed = (args.seed if args.seed is not None else
                fingerprints["default_seed"])
        seconds = (args.seconds if args.seconds is not None else
                   spec["run_seconds"])
        out_dir = build_dir()
        driver = build(out_dir)
        if args.record:
            record_fingerprints(driver, out_dir, spec, fingerprints)
            return 0
        if args.all:
            return run_all(driver, out_dir, spec, fingerprints, seed,
                           seconds, args.trace)
        result, _ = measure(driver, out_dir, spec, fingerprints,
                            args.workload, seed, seconds, args.trace)
    except BenchError as e:
        log(str(e))
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
