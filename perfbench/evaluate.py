"""Reduces one perfbench_driver record to the benchmark's metrics.

Pure functions only (no I/O), so perfbench/tests can check the
statistics, the failure accounting and the fingerprint gate on synthetic
records without building anything.
"""

import math

# A percentile is reported only when at least this many samples lie
# beyond it (choosing-metrics rule: "the highest percentile that has at
# least ten samples beyond it").
SAMPLES_BEYOND = 10
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Layer self times plus the explicit remainders must cover the traced
# pass's wall time within this share.
TILING_TOLERANCE = 0.02

MIB = float(1 << 20)


def median(values):
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples (the epsilon
    absorbs binary rounding, e.g. 99.9 * 10000 / 100)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def supported_percentile(n):
    """Highest ladder percentile with SAMPLES_BEYOND samples above it for
    a sample count n, or None when even the median is not supported."""
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= SAMPLES_BEYOND:
            return p
    return None


def timing_summary(values):
    """Median, sample count and the tail percentile the count supports."""
    p = supported_percentile(len(values))
    return {
        "n": len(values),
        "median": median(values),
        "percentile": p,
        "percentile_value": percentile(values, p) if p is not None else None,
    }


def failed_frac(attempted, failed):
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return failed / attempted


def op_fingerprint(op):
    """The deterministic part of an operation record."""
    return {k: v for k, v in op.items() if k not in ("ok", "error")}


def op_failure(op, reference):
    """Why one operation failed, or None. An operation fails when it
    returned a non-OK status, overloaded, was truncated (missing), or
    differs from its reference fingerprint."""
    if op is None:
        return "truncated: operation missing from the pass"
    if not op.get("ok", False):
        return op.get("error") or "not ok"
    if op.get("overloaded", False):
        return "overloaded"
    if reference is not None and op_fingerprint(op) != op_fingerprint(
            reference):
        diff = sorted(
            k for k in set(op) | set(reference)
            if k not in ("ok", "error") and op.get(k) != reference.get(k))
        return "fingerprint mismatch in " + ", ".join(diff)
    return None


def check_passes(passes, reference_ops, ops_per_pass):
    """Counts attempted and failed operations over every pass.

    reference_ops: the recorded fingerprint for the default seed, or the
    run's own first pass for any other seed. Returns (attempted, failed,
    reasons) where reasons lists "pass i op j: why" strings.
    """
    attempted = 0
    failed = 0
    reasons = []
    for i, one_pass in enumerate(passes):
        ops = one_pass["ops"]
        expected = max(ops_per_pass, len(ops))
        for j in range(expected):
            op = ops[j] if j < len(ops) else None
            ref = reference_ops[j] if j < len(reference_ops) else None
            why = op_failure(op, ref)
            if why is None and ref is None:
                why = "extra operation not in the fingerprint"
            attempted += 1
            if why is not None:
                failed += 1
                reasons.append("pass %d op %d: %s" % (i, j, why))
    return attempted, failed, reasons


def tiling(layers, wall_s, lanes=1):
    """Self times of every named layer of one traced pass and the
    tiling error.

    Runner workloads nest pass > core.run > {tasks.make_program,
    engine.run > {compute, deliver}, bench.check}; each remainder is an
    explicit `other`. A negative self time means two timers overlap (the
    old compute_ms > wall_ms defect), so selfs are clamped at zero and
    the clamped sum must still cover the pass within TILING_TOLERANCE.
    """
    span_s = wall_s * lanes
    if lanes > 1:
        # Concurrent workload: driver-slot seconds; only MakeProgram is
        # observable per query, the rest is one remainder.
        selfs = {
            "tasks.make_program_s": layers["make_program_s"],
            "core.runner_other_s": span_s - layers["make_program_s"],
        }
        untiled = 0.0
    else:
        selfs = {
            "tasks.make_program_s": layers["make_program_s"],
            "engine.compute_s": layers["compute_s"],
            "engine.deliver_s": layers["deliver_s"],
            "engine.other_s": (layers["engine_run_s"] - layers["compute_s"]
                               - layers["deliver_s"]),
            "bench.check_s": layers["check_s"],
            "core.runner_other_s": (layers["core_run_s"]
                                    - layers["make_program_s"]
                                    - layers["engine_run_s"]
                                    - layers["check_s"]),
        }
        untiled = wall_s - layers["core_run_s"]
    covered = sum(max(0.0, v) for v in selfs.values()) + max(0.0, untiled)
    return {
        "selfs": selfs,
        "untiled_frac": untiled / span_s,
        "error_frac": abs(covered - span_s) / span_s,
    }


# Engine metrics a concurrent run cannot observe (see per_layer_metrics).
ENGINE_ONLY = (
    "engine.run_s", "engine.compute_s", "engine.group_busy_s",
    "engine.stage_busy_s", "engine.deliver_s", "engine.other_s",
    "engine.compute_ns_per_msg", "engine.stage_ns_per_msg",
    "engine.group_ns_per_msg", "engine.deliver_ns_per_msg",
    "engine.compute_ns_per_vertex", "engine.wire_msgs",
    "engine.active_vertices", "engine.combine_ratio", "bench.check_s")


def per_layer_metrics(record, untraced_median_s):
    """Every per-layer metric of a traced run, the notes naming metrics
    that do not apply to this workload (reported as 0) and why, and the
    worst tiling error over the traced passes."""
    traced = [p for p in record["passes"][1:] if p["traced"]]
    if not traced:
        raise ValueError("traced run recorded no traced pass")
    lanes = record["lanes"]
    scale = record["dataset_scale"]
    counters = traced[0]["counters"]
    setups = record["setups"]
    m = {}
    notes = {}

    def layer(key):
        return median([p["layers"][key] for p in traced])

    m["graph.generate_s"] = median([s["generate_s"] for s in setups])
    m["graph.partition_s"] = median([s["partition_s"] for s in setups])
    m["graph.vertices"] = record["graph_vertices"]
    m["graph.edges"] = record["graph_edges"]
    m["tasks.programs"] = traced[0]["layers"]["programs"]

    tilings = [tiling(p["layers"], p["wall_s"], lanes) for p in traced]
    for name in tilings[0]["selfs"]:
        m[name] = median([t["selfs"][name] for t in tilings])

    # Counts at generated-graph scale: what this process actually moved.
    logical = counters["logical_msgs"] / scale
    m["engine.rounds"] = counters["rounds"]
    m["engine.logical_msgs"] = logical
    if lanes == 1:
        m["engine.run_s"] = layer("engine_run_s")
        m["engine.group_busy_s"] = layer("group_busy_s")
        m["engine.stage_busy_s"] = layer("stage_busy_s")
        per_msg = {"compute": "engine.compute_s",
                   "stage": "engine.stage_busy_s",
                   "group": "engine.group_busy_s",
                   "deliver": "engine.deliver_s"}
        for name, key in per_msg.items():
            m["engine.%s_ns_per_msg" % name] = 1e9 * m[key] / logical
        active = counters["active_vertices"] / scale
        m["engine.compute_ns_per_vertex"] = 1e9 * m["engine.compute_s"] / active
        m["engine.wire_msgs"] = counters["wire_msgs"] / scale
        m["engine.active_vertices"] = active
        m["engine.combine_ratio"] = (counters["logical_msgs"]
                                     / counters["wire_msgs"])
    else:
        why = ("ConcurrentRunner rejects per-batch observers, so engine "
               "phase times and EngineResult counters cannot be read from "
               "outside src/; core.runner_other_s holds the engine time")
        for name in ENGINE_ONLY:
            m[name] = 0.0
            notes[name] = why

    m["sim.simulated_s"] = counters["simulated_s"]
    m["sim.overloaded_batches"] = counters["overloaded_batches"]

    hits, misses = counters["cache_hits"], counters["cache_misses"]
    m["ooc.spill_mib_written"] = counters["spill_bytes_written"] / MIB
    m["ooc.spill_mib_read"] = counters["spill_bytes_read"] / MIB
    m["ooc.restored_msgs"] = counters["restored_msgs"]
    m["ooc.spill_pages"] = counters["spill_pages"]
    m["ooc.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["ooc.cache_evictions"] = counters["cache_evictions"]
    m["ooc.prefetch_loads"] = counters["prefetch_loads"]
    if hits + misses == 0:
        for name in [k for k in m if k.startswith("ooc.")]:
            notes[name] = "src/ooc is off on this workload"

    m["core.batches"] = counters["batches"]
    m["core.queries"] = counters["queries"]
    m["core.queries_per_s"] = counters["queries"] / untraced_median_s

    m["trace.overhead_s"] = (median([p["wall_s"] for p in traced])
                             - untraced_median_s)
    m["trace.untiled_frac"] = median([t["untiled_frac"] for t in tilings])
    if lanes > 1:
        notes["trace.untiled_frac"] = (
            "0 by construction: only MakeProgram is observable per query")
    return m, notes, max(t["error_frac"] for t in tilings)


def evaluate(record, reference_ops, trace):
    """The benchmark result for one driver record.

    Returns (result, details): result has exactly the keys correct,
    attempted, failed and metrics; details carries the human-readable
    extras (timing summary, failure reasons, notes).
    """
    passes = record["passes"]
    attempted, failed, reasons = check_passes(passes, reference_ops,
                                              record["ops_per_pass"])
    measured = passes[1:]
    untraced = [p["wall_s"] for p in measured if not p["traced"]]
    run = timing_summary(untraced)
    details = {
        "run_s": run,
        "failed_frac": failed_frac(attempted, failed),
        "failures": reasons[:20],
        "notes": {},
    }
    correct = failed == 0
    if trace:
        metrics, notes, tiling_error = per_layer_metrics(record,
                                                         run["median"])
        details["notes"] = notes
        details["tiling_error"] = tiling_error
        if tiling_error > TILING_TOLERANCE:
            correct = False
            details["failures"].append(
                "layers tile the traced pass only within %.3f (> %.2f)" %
                (tiling_error, TILING_TOLERANCE))
    else:
        metrics = {
            "setup_s": median([s["total_s"] for s in record["setups"]]),
            "run_s": run["median"],
            "peak_rss_mib": record["peak_rss_mib"],
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details
