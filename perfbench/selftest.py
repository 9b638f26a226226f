"""Self-test of the benchmark: python3 perfbench/selftest.py

Checks the yardstick's scaling on made-up readings and that it reads on its
timer.  Runs one cell of every workload untraced and traced, and checks that
the result line has the contract's keys, that every end-to-end and per-layer
metric of BENCHMARK.json is printed by name with its unit, and that the
results digest repeats.  Then it corrupts one expected result per workload
and checks that the run fails: nonzero exit, correct false, failed > 0.
Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

# workload -> index of the cell to run: the 10_137 query (enumerates,
# cheap), the 3_1 k=1 F_5 grid cell and the first grid union
CELLS = {"obstruct": 4, "symun-grid": 0, "classical-grid": 0}


def expect(cond, msg):
    if not cond:
        raise SystemExit("selftest FAILED: " + msg)


def bench(workload, trace):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run.bench(workload, 1, 0, trace, [CELLS[workload]], out)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "%s: result keys %s" % (workload, sorted(result)))
    digest = next(ln.split()[1] for ln in lines if ln.startswith("digest "))
    return rc, result, lines[:-1], digest, err.getvalue()


def check_metrics(workload, trace, spec):
    rc, result, text, digest, err = bench(workload, trace)
    expect(rc == 0 and result["correct"] and result["failed"] == 0,
           "%s trace=%d failed: %s" % (workload, trace, err))
    expect(result["attempted"] >= 1, "%s: nothing attempted" % workload)
    names = [m["name"] for m in spec]
    expect(sorted(result["metrics"]) == sorted(names),
           "%s trace=%d: metric names differ" % (workload, trace))
    for m in spec:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"] and isinstance(got["value"], float),
               "%s: %s is %r" % (workload, m["name"], got))
        expect(any(ln.split()[:1] == [m["name"]] and
                   ln.split()[2:3] == [m["unit"]] for ln in text),
               "%s: %s not printed with its unit" % (workload, m["name"]))
    return digest


def corrupted(workload):
    """Run with one expected result corrupted; the run must fail."""
    saved = (workloads.OBSTRUCT_QUERIES, workloads._verify_check,
             workloads._classical_check)
    if workload == "obstruct":
        rows = list(workloads.OBSTRUCT_QUERIES)
        knot, cand, p, verdict, num_reps = rows[CELLS[workload]]
        rows[CELLS[workload]] = (knot, cand, p, verdict, num_reps + 1)
        workloads.OBSTRUCT_QUERIES = tuple(rows)
    elif workload == "symun-grid":
        # the degree the law expects, 2 deg Delta_{D,rho} + d, off by one
        def verify_check(name, spec, p, i):
            check = saved[1](name, spec, p, i)
            return lambda out: check(dict(out, deg_rhs=out["deg_rhs"] + 1))
        workloads._verify_check = verify_check
    else:
        # Delta_D, which gives the expected Delta_union and det, off by one
        def classical_check(kf, name, spec):
            check = saved[2](kf, name, spec)
            one = kf.algebra.LaurentPoly.one(kf.algebra.ZZ)
            return lambda res: check((res[0], res[1], res[2] + one, res[3]))
        workloads._classical_check = classical_check
    try:
        rc, result, _, _, err = bench(workload, 0)
    finally:
        (workloads.OBSTRUCT_QUERIES, workloads._verify_check,
         workloads._classical_check) = saved
    expect(rc != 0 and not result["correct"] and result["failed"] >= 1,
           "%s: a corrupted expected result did not fail the run" % workload)
    expect("FAILED" in err, "%s: failure not reported" % workload)


def check_yardstick():
    """An op's factor is REF_S over the mean reading during it, or over the
    NEAREST readings when it is shorter than their interval."""
    stick = yardstick.Yardstick()
    stick.at = [0.1 * i for i in range(20)]
    stick.readings = [yardstick.REF_S * (2 if i < 10 else 4)
                      for i in range(20)]
    expect(abs(stick.factor(0.0, 0.45) - 0.5) < 1e-12, "yardstick: mean")
    expect(abs(stick.factor(1.51, 1.52) - 0.25) < 1e-12, "yardstick: nearest")
    with yardstick.Yardstick() as stick:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * yardstick.EVERY_S:
            yardstick.kernel()
    expect(len(stick.readings) >= 2, "yardstick: no readings on SIGALRM")


def main():
    expect(run.use_source(), "no knotforge sources")
    check_yardstick()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect(sorted(spec["workloads"][i]["name"] for i in range(3)) ==
           sorted(workloads.WORKLOADS), "workload names differ")
    for workload in workloads.WORKLOADS:
        d0 = check_metrics(workload, 0, spec["end_to_end"])
        d1 = check_metrics(workload, 1, spec["per_layer"])
        expect(d0 == d1, "%s: digest does not repeat" % workload)
        corrupted(workload)
        print("selftest %s: ok (digest %s)" % (workload, d0))
    print("selftest ok")


if __name__ == "__main__":
    main()
