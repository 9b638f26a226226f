"""knotforge benchmark.

    python3 perfbench/run.py --workload obstruct --seed 1 --seconds 40 \
        --trace 0

Runs one workload of workloads.py from a source checkout (knotforge is
imported from its src/).  One caller runs the operations of the workload one
after another in this process, pass after pass: whole passes, as many as fit
in about --seconds, and at least one.  Each result is checked, and a sha256
digest of one pass's canonical results (without timings) is printed; every
pass must reproduce it.

--trace 0 prints the end-to-end metrics.  Their times are scaled to a
reference machine speed by yardstick.py, because the speed of a shared host
drifts more than the bounds allow; the raw times are printed beside them.
--trace 1 runs every op twice,
untraced and with the package's layer entry points wrapped (tracer.py), and
prints the per-layer metrics of the traced calls, per pass, with the tracing
overhead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
operation succeeded and matched.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

MODULES = ("algebra", "diagram", "presentation", "reps", "_fastdet",
           "twisted", "cli")
SETUPS = 7
TAIL_BEYOND = 10
NO_WAIT = ("one thread, no queue or lock: no layer waits, so no wait time "
           "is reported")


def use_source():
    """Put the checkout's src/ first on sys.path; False without sources."""
    if not os.path.isfile(os.path.join(SRC, "knotforge", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def import_knotforge():
    """Fresh import of every knotforge module (dropping earlier imports), so
    each set-up pays the import as a user's process does."""
    for name in [n for n in sys.modules
                 if n == "knotforge" or n.startswith("knotforge.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("knotforge." + m)
                              for m in MODULES})


def load_inputs(kf, workload, seed, cells_only):
    """Table load and seeded input generation."""
    table = kf.cli.default_table(workloads.TABLE)
    cells = workloads.WORKLOADS[workload](kf, table, seed)
    if cells_only is not None:
        cells = [cells[i] for i in cells_only]
    return cells


def timed_call(op, stick=None):
    """(latency in ms, CPU s, result, traceback or None, (start, end)) of
    one op call; the time the readings of a running yardstick took is left
    out of both times."""
    c0, t0 = time.process_time(), time.perf_counter()
    s0 = stick.spent if stick else 0.0
    try:
        result, error = op.call(), None
    except Exception:
        result, error = None, traceback.format_exc()
    t1, c1 = time.perf_counter(), time.process_time()
    read = (stick.spent if stick else 0.0) - s0
    return (t1 - t0 - read) * 1e3, c1 - c0 - read, result, error, (t0, t1)


def checked(op, result, error):
    """(canonical record, problem or None) of one op call."""
    if error:
        return "raised", error
    try:
        return op.check(result)
    except Exception:
        return "check raised", traceback.format_exc()


def run_pass(cells, tracer=None, pass_no=0):
    """Run every op once; return its elapsed s, op latencies in ms and CPU
    s, the sha256 of the canonical results and the failures.

    Untraced, a yardstick reads the machine's speed during the pass, and
    the latencies and CPU times are scaled to its reference speed
    (raw_latencies keeps the measured ones).  With a tracer each op runs
    twice back to back, untraced and traced, in alternating order, so that
    their difference is the tracing overhead and not a change of machine
    speed or of which call came second; the latencies are then the traced
    ones and base_latencies the untraced ones, both raw."""
    digest = hashlib.sha256()
    latencies, cpus, raw, base_latencies, failures = [], [], [], [], []
    windows = []
    w0 = time.perf_counter()
    stick = None if tracer else yardstick.Yardstick()
    with stick or contextlib.nullcontext():
        for i, op in enumerate(op for cell in cells for op in cell):
            if tracer:
                calls = {}
                for traced in (i + pass_no) % 2 == 1, (i + pass_no) % 2 == 0:
                    if traced:
                        tracer.op = "%d.%d" % (pass_no, i)
                        tracer.install()
                    try:
                        calls[traced] = timed_call(op)
                    finally:
                        if traced:
                            tracer.uninstall()
                            tracer.op = None
                ms, _, result, error, _ = calls[False]
                base_latencies.append(ms)
                base_record, problem = checked(op, result, error)
                if problem:
                    failures.append((op.label + " (untraced)", problem))
                ms, cpu, result, error, _ = calls[True]
            else:
                ms, cpu, result, error, window = timed_call(op, stick)
                windows.append(window)
            raw.append(ms)
            cpus.append(cpu)
            record, problem = checked(op, result, error)
            if tracer and not problem and record != base_record:
                problem = "traced and untraced results differ"
            if problem:
                failures.append((op.label, problem))
            digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        if stick and not stick.readings:
            stick.read()
    if stick:
        factors = [stick.factor(*w) for w in windows]
        latencies = [ms * f for ms, f in zip(raw, factors)]
        cpus = [cpu * f for cpu, f in zip(cpus, factors)]
    else:
        latencies = raw
    return {"elapsed": time.perf_counter() - w0,
            "wall": sum(latencies) / 1e3, "cpu": sum(cpus),
            "latencies": latencies, "raw_latencies": raw,
            "readings": stick.readings if stick else [],
            "base_latencies": base_latencies, "digest": digest.hexdigest(),
            "failures": failures}


def measure(cells, seconds, tracer=None):
    """Complete passes, at least one, while the next one is expected to end
    within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cells, tracer, len(passes)))
        expected_end = time.perf_counter() - start + statistics.median(
            p["elapsed"] for p in passes)
        if expected_end > seconds:
            return passes


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it (nearest
    rank), as (value, percentile, samples beyond); the maximum when there
    are too few samples."""
    xs = sorted(latencies)
    idx = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - idx - 1


def git_sha():
    """HEAD read from .git without running git; checkouts made for
    benchmarking need not be git repositories."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over the package's sources and data, which identifies the code
    measured where there is no git SHA."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "knotforge")
    for dirpath, dirnames, files in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            if f.endswith((".py", ".csv", ".json")):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(workload, seed, seconds, trace):
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": platform.python_version(),
            "git_sha": git_sha(), "src_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "loadavg": "/".join("%.2f" % x for x in os.getloadavg())}


def end_to_end(passes, setup_times, say):
    """The end-to-end metrics.  Their times are in seconds at the reference
    speed of yardstick.py; the raw medians are printed beside them."""
    # one sample per op: its median latency over the passes, so the
    # percentiles do not depend on how many passes fit in the run
    lat = [statistics.median(xs)
           for xs in zip(*(p["latencies"] for p in passes))]
    raw = [statistics.median(xs)
           for xs in zip(*(p["raw_latencies"] for p in passes))]
    wall = statistics.median(p["wall"] for p in passes)
    raw_wall = statistics.median(sum(p["raw_latencies"]) / 1e3
                                 for p in passes)
    tail_ms, tail_pct, beyond = tail(lat)
    readings = sorted(r * 1e3 for p in passes for r in p["readings"])
    rows = (
        ("wall_s", wall, "s", "one pass, the sum of its op latencies; "
         "median of %d passes; raw %.6g s" % (len(passes), raw_wall)),
        ("ops_per_s", len(lat) / wall, "1/s", "ops per pass / wall_s"),
        ("op_p50_ms", statistics.median(lat), "ms",
         "median of %d ops, each its median over the passes; raw %.6g ms"
         % (len(lat), statistics.median(raw))),
        ("op_tail_ms", tail_ms, "ms", "p%.1f of the same %d samples, %d "
         "beyond; raw %.6g ms" % (tail_pct, len(lat), beyond, tail(raw)[0])),
        ("cpu_s", statistics.median(p["cpu"] for p in passes), "s",
         "process CPU time of a pass's ops, median"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
         / 1024.0, "MB", None),
        ("setup_s", statistics.median(t for t, _ in setup_times), "s",
         "median of %d set-ups: import, table load, seeded inputs; raw "
         "%.6g s" % (SETUPS, statistics.median(r for _, r in setup_times))),
    )
    say("# times at the reference speed: measured time x %g ms / yardstick "
        "kernel ms, read every %g s; %d readings, min %.3f median %.3f "
        "max %.3f ms" % (yardstick.REF_S * 1e3, yardstick.EVERY_S,
                         len(readings), readings[0],
                         statistics.median(readings), readings[-1]))
    for name, value, unit, note in rows:
        say("%-12s %.6g %s%s" % (name, value, unit,
                                 "  (%s)" % note if note else ""))
    return {name: {"value": value, "unit": unit}
            for name, value, unit, _ in rows}


def per_layer(tracer, passes, say):
    """Per-layer metrics per traced pass, and trace.overhead_s."""
    n = len(passes)
    traced = [sum(p["latencies"]) / 1e3 for p in passes]
    wall = statistics.median(traced)
    summary = tracer.summary("timed")
    metrics = {}
    for name, (unit, sources, field, moves) in tracing.LAYER_METRICS.items():
        rows = [summary[s] for s in sources if s in summary]
        if name == "trace.overhead_s":
            value = statistics.median(
                t - sum(p["base_latencies"]) / 1e3
                for t, p in zip(traced, passes))
        elif field == "max":
            value = max((r["max"] for r in rows), default=0)
        else:
            value = sum(r[field] for r in rows) / n
        metrics[name] = {"value": float(value), "unit": unit}
        say("%-44s %.6g %s  -> %s" % (name, value, unit, moves))
    say("(per traced pass, %d traced passes; traced pass median %.4f s, "
        "its ops run untraced %.4f s)" % (n, wall, wall - metrics[
            "trace.overhead_s"]["value"]))
    say("wait time: " + NO_WAIT)

    def share(*names):
        return 100 * sum(summary[s]["s"] for s in names if s in summary) \
            / n / wall
    say("share of the traced pass: reps.enumerate_sl2 %.1f%%, "
        "fastdet.pencil_det + twisted.fox_matrix %.1f%%, algebra.det %.1f%%"
        % (share("reps.enumerate_sl2"),
           share("fastdet.pencil_det", "twisted.fox_matrix"),
           share("algebra.det")))
    say("set-up spans, kept apart from the timed ones: " + ", ".join(
        "%s %d calls" % (s, r["calls"])
        + ("" if s in tracing.COUNTED else " %.4f s" % r["s"])
        for s, r in sorted(tracer.summary("setup").items())))
    return metrics


def bench(workload, seed, seconds, trace, cells_only=None, out=None):
    """Set up, measure and report one run; returns the exit code.
    `cells_only` restricts the run to those cell indices."""
    out = out or sys.stdout
    os.chdir(ROOT)
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    env = environment(workload, seed, seconds, trace)

    def say(line):
        out.write(line + "\n")

    setup_times = []  # (at the reference speed, raw) seconds
    for _ in range(SETUPS):
        with yardstick.Yardstick() as stick:
            t0 = time.perf_counter()
            kf = import_knotforge()
            cells = load_inputs(kf, workload, seed, cells_only)
            t1, spent = time.perf_counter(), stick.spent
            if not stick.readings:
                stick.read()
        raw = t1 - t0 - spent
        setup_times.append((raw * stick.factor(t0, t1), raw))

    say("# perfbench " + " ".join("%s=%s" % kv for kv in env.items()))
    say("# closed loop, 1 caller, %d ops per pass"
        % sum(len(c) for c in cells))
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cells = load_inputs(kf, workload, seed, cells_only)
        finally:
            tracer.uninstall()
        tracer.phase = "timed"
    passes = measure(cells, seconds, tracer)

    attempted = sum(len(p["latencies"]) + len(p["base_latencies"])
                    for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = {p["digest"] for p in passes}
    correct = not failures and len(digests) == 1
    for label, problem in failures[:5]:
        sys.stderr.write("FAILED %s: %s\n" % (label, problem.rstrip()))
    say("%s passes %d, attempted %d, failed %d, fail_ratio %r"
        % ("traced" if trace else "measured", len(passes), attempted,
           len(failures), len(failures) / attempted))
    say("digest sha256:%s (canonical results of a pass, timing_ms left "
        "out)%s" % (passes[0]["digest"], "" if len(digests) == 1
                    else " -- PASSES DISAGREE"))
    if not trace:
        metrics = end_to_end(passes, setup_times, say)
    else:
        metrics = per_layer(tracer, passes, say)
        path = os.path.join(workloads.WORK_DIR, "spans-%s-seed%d.jsonl"
                            % (workload, seed))
        tracer.write(path, env)
        say("spans written to %s" % path)
    out.write(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": len(failures), "metrics": metrics}) + "\n")
    out.flush()
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not use_source():
        sys.stderr.write("error: no knotforge sources under %s\n" % SRC)
        return 2
    return bench(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
