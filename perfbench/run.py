#!/usr/bin/env python3
"""The workbench benchmark: one command, four workloads, checked answers.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 55 \
        --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``enumerate`` (the
parts ``enum-dmm`` and ``enum-irl``) and ``single-algebra`` (the parts
``harness`` and ``queries``); each part also runs on its own, and
``queries-all`` adds the calls known to hang at the commit that defined
the benchmark.

One client runs the workload's calls in a closed loop, one pass after
another, for ``--seconds`` (at least one pass, and no pass that would end
after the time is up), and checks every pass's answers.  With ``--trace 0``
it reports the end-to-end metrics, pass times calibrated to machine
speed by ``calibrate.py``; with ``--trace 1`` it alternates untraced passes
with passes on the same inputs in which the library's functions are
wrapped, and reports per-layer self times and counts per traced pass, plus
the tracing overhead.
Human-readable lines go first; the last line of standard output is one JSON
object.  A wrong answer makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads as wl  # noqa: E402
from calibrate import NOMINAL_S, Calibrator  # noqa: E402

SETUP_SAMPLES = 7


class DeadlineHit(BaseException):
    """Raised in the main thread by SIGALRM when a call's deadline passes.
    A BaseException, so that no ``except Exception`` in the library can
    swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineHit()


def call_with_deadline(label, fn, deadline, tracer=None, cal=None):
    """One call under its deadline; its latency leaves out the time of any
    calibration samples taken during it."""
    depth = len(tracer.stack) if tracer else 0
    spent = cal.spent if cal else 0.0

    def took():
        return perf_counter() - t0 - ((cal.spent if cal else 0.0) - spent)

    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            value = fn()
            latency = took()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineHit:
        if tracer:
            tracer.unwind(depth)
        return wl.OpResult(label, None, deadline, "deadline")
    except Exception as exc:  # a crash is a failed call, reported by name
        if tracer:
            tracer.unwind(depth)
        return wl.OpResult(label, None, took(), "error",
                           f"{type(exc).__name__}: {exc}")
    return wl.OpResult(label, value, latency)


def run_pass(workload, inputs, number, tracer=None, cal=None):
    """Pass ``number`` over the workload's calls, then its check; returns
    (wall seconds, results without their values, problems, calibrated
    seconds or None).  With a calibrator, the pass starts and ends with a
    sample, and the wall time leaves out the samples' time.  Inputs are
    rebuilt before the clock starts, so no pass reuses objects (and their
    memoized tables) from an earlier one."""
    ops = workload.ops(inputs, number)
    root = tracer.open(tracer.name_id("bench.pass")) if tracer else None
    if cal:
        cal.sample()
        spent = cal.spent
    t0 = perf_counter()
    results = [call_with_deadline(label, fn, deadline, tracer, cal)
               for label, fn, deadline in ops]
    t1 = perf_counter()
    wall, calibrated = t1 - t0, None
    if tracer:
        tracer.close(root)
    if cal:
        wall -= cal.spent - spent
        cal.sample()
        calibrated = cal.calibrated(t0, t1)
    problems = workload.check(inputs, number, results)
    for r in results:
        r.value = None  # so peak memory does not grow with the pass count
    return wall, results, problems, calibrated


def more_time(begin, rounds, seconds):
    """Whether one more round (of the median length so far) still ends
    within ``seconds`` of ``begin``; the first round always runs."""
    if not rounds:
        return True
    return perf_counter() - begin + statistics.median(rounds) <= seconds


def run_passes(workload, inputs, seconds, cal):
    """Passes for ``seconds``: at least one, and none that would end
    after the time is up."""
    passes, rounds = [], []
    begin = perf_counter()
    while more_time(begin, rounds, seconds):
        t0 = perf_counter()
        passes.append(run_pass(workload, inputs, len(passes), cal=cal))
        rounds.append(perf_counter() - t0)
    return passes


def do_setup(name, seed):
    """Import the library and build the workload's inputs; returns
    (workload, inputs, seconds taken)."""
    t0 = perf_counter()
    import dmm.cli  # noqa: F401  (imports every module of the library)
    workload = wl.WORKLOADS[name]()
    inputs = workload.setup(seed)
    return workload, inputs, perf_counter() - t0


def setup_samples(name, seed):
    """Set-up times of fresh processes (each pays the import again)."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def latency_slots(passes):
    """Per call position, the median latency over the passes (so the
    percentiles do not depend on how many passes fit in the run)."""
    return [statistics.median(p[1][i].latency for p in passes)
            for i in range(len(passes[0][1]))]


def summarize_passes(passes):
    results = [r for p in passes for r in p[1]]
    failed = sum(r.status != "ok" for r in results)
    problems = [msg for p in passes for msg in p[2]]
    problems += [f"{r.label}: {r.error}" for r in results
                 if r.status == "error"]
    return results, failed, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def report_problems(problems, deadline_hits):
    for label in sorted(set(deadline_hits)):
        print(f"deadline: {label}")
    for msg in dict.fromkeys(problems):
        print(f"WRONG: {msg}")


def untraced(args):
    samples = setup_samples(args.workload, args.seed)
    workload, inputs, own = do_setup(args.workload, args.seed)
    samples.append(own)
    cal = Calibrator()
    cal.install()
    try:
        passes = run_passes(workload, inputs, args.seconds, cal)
    finally:
        cal.uninstall()
        workload.teardown(inputs)
    results, failed, problems = summarize_passes(passes)
    slots = latency_slots(passes)
    walls = [p[0] for p in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m = {
        "setup_s": metric(statistics.median(samples), "s"),
        "wall_cal_s": metric(statistics.median(p[3] for p in passes), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    p50 = 1000 * statistics.median(slots)
    p90 = 1000 * statistics.quantiles(slots, n=10, method="inclusive")[8]
    report_problems(problems, [r.label for r in results
                               if r.status == "deadline"])
    print(f"workload {args.workload}: {len(passes)} pass(es), "
          f"{len(slots)} calls per pass")
    for name, a, b in getattr(workload, "slices", lambda i: [])(inputs):
        part = statistics.median(sum(r.latency for r in p[1][a:b])
                                 for p in passes)
        print(f"part {name}: {b - a} calls, {part:.4g} s per pass (median)")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in samples)}")
    print(f"pass walls: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"calibrated: {' '.join(f'{p[3]:.3f}' for p in passes)}")
    print(f"calibration: {len(cal.times)} loop samples, median "
          f"{1000 * statistics.median(cal.times):.4g} ms (nominal "
          f"{1000 * NOMINAL_S:.4g} ms), {cal.spent:.3g} s in all")
    print(f"wall_s: {statistics.median(walls):.6g} s")
    for k, v in m.items():
        print(f"{k}: {v['value']:.6g} {v['unit']}")
    print(f"op_p50_ms: {p50:.6g} ms")
    print(f"op_p90_ms: {p90:.6g} ms")
    print(f"  (per call position the median latency over {len(passes)} "
          f"pass(es), then percentiles over {len(slots)} positions)")
    print(f"failed_frac: {failed}/{len(results)} = "
          f"{failed / len(results):.4f}")
    return not problems, len(results), failed, m


def _per_layer_names():
    """The per-layer metrics the traced run reports, with units."""
    def fn(prefix, names, extra=()):
        out = []
        for n in names:
            out += [(f"{prefix}.{n}.self_s", "s"), (f"{prefix}.{n}.calls",
                                                    "count")]
        return out + list(extra)

    return [
        ("enumeration.lattices.self_s", "s"),
        ("enumeration.lattices.count", "count"),
        ("enumeration.distributive.self_s", "s"),
        ("enumeration.distributive.kept", "count"),
        ("enumeration.involutions.self_s", "s"),
        ("enumeration.involutions.calls", "count"),
        ("enumeration.involutions.count", "count"),
        ("enumeration.involutions.permutations", "count"),
        ("enumeration.involutions.yield", "ratio"),
        ("enumeration.fusion.self_s", "s"),
        ("enumeration.fusion.triples", "count"),
        ("enumeration.fusion.tables", "count"),
        ("enumeration.fusion.pruned", "count"),
        ("enumeration.validate.self_s", "s"),
        ("enumeration.validate.total_s", "s"),
        ("enumeration.validate.calls", "count"),
        ("enumeration.canonical.self_s", "s"),
        ("enumeration.canonical.calls", "count"),
        ("enumeration.classes", "count"),
        ("enumeration.dedup_yield", "ratio"),
        *fn("enumeration", ["enumerate_algebras", "theorem_harness",
                            "axiomatization_check"]),
        *fn("filters", ["deductive_filters"],
            [("filters.deductive_filters.subsets", "count"),
             ("filters.filter_yield", "ratio")]),
        *fn("filters", ["classify", "omega", "quotient", "dfg", "filter_of",
                        "congruence_lattice"]),
        *fn("constructions", ["canonical_form"],
            [("constructions.canonical_form.failed", "count")]),
        *fn("constructions", ["is_isomorphic"],
            [("constructions.is_isomorphic.failed", "count")]),
        *fn("constructions", ["homs", "hs_contains", "subuniverse", "sg",
                              "e_free_reduct", "make_named"]),
        *fn("algebra", ["validate_irl", "validate_dmm", "check_derived_laws",
                        "predicates"]),
        *fn("terms", ["satisfies", "law_statements"]),
        *fn("structure", ["splitting_check", "lollipop",
                          "fusion_pattern_check", "odd_sugihara_quotient"]),
        *fn("relevant", ["dfg_ra", "dfg_oracle", "validate_ra",
                         "meet_property_check", "ra_classify",
                         "reconstruct_neutral", "contains_two_reduct"]),
        *fn("cli", ["main"]),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.spans", "count"),
    ]


PER_LAYER = _per_layer_names()


def layer_values(tracer, passes, plain):
    """Every measured per-layer value, per traced pass."""
    k = len(passes)
    selfs, totals, spans = tracer.self_times("bench.pass")
    values = {}
    for name in spans:
        if name != "bench.pass":
            values[f"{name}.self_s"] = selfs[name] / k
            values[f"{name}.total_s"] = totals[name] / k
            kind = "nexts" if name in tracer.generators else "calls"
            values[f"{name}.{kind}"] = spans[name] / k
    c = dict(tracer.counts)
    for name, v in c.items():
        values[name] = v / k
    values["enumeration.involutions.yield"] = (
        c.get("enumeration.involutions.count", 0)
        / max(c.get("enumeration.involutions.permutations", 0), 1))
    values["enumeration.dedup_yield"] = (
        c.get("enumeration.classes", 0)
        / max(c.get("enumeration.fusion.tables", 0), 1))
    values["filters.filter_yield"] = (
        c.get("filters.deductive_filters.found", 0)
        / max(c.get("filters.deductive_filters.subsets", 0), 1))
    traced_wall = statistics.median(p[0] for p in passes)
    plain_wall = statistics.median(p[0] for p in plain)
    layer_self = sum(v for n, v in selfs.items() if n != "bench.pass")
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = plain_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.coverage"] = layer_self / sum(p[0] for p in passes)
    values["trace.spans"] = len(tracer.start) / k
    return values


def traced(args):
    """Pairs of an untraced and a traced pass with the same inputs, until
    ``--seconds`` have passed; alternating keeps drift in machine speed
    out of the overhead."""
    from spans import Tracer
    workload, inputs, _ = do_setup(args.workload, args.seed)
    tracer = Tracer()
    plain, passes, rounds = [], [], []
    begin = perf_counter()
    try:
        while more_time(begin, rounds, args.seconds):
            t0 = perf_counter()
            plain.append(run_pass(workload, inputs, len(passes)))
            tracer.install()
            try:
                passes.append(run_pass(workload, inputs, len(passes),
                                         tracer))
            finally:
                tracer.uninstall()
            rounds.append(perf_counter() - t0)
    finally:
        workload.teardown(inputs)
    _, _, problems = summarize_passes(plain)
    results, failed, traced_problems = summarize_passes(passes)
    problems += traced_problems
    values = layer_values(tracer, passes, plain)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{args.workload}.txt")
    report_problems(problems, [r.label for r in results
                               if r.status == "deadline"])
    for name in tracer.absent:
        print(f"absent: {name}")
    print(f"workload {args.workload}: {len(plain)} untraced and "
          f"{len(passes)} traced pass(es); values are per traced pass")
    for name, v in sorted(values.items()):
        print(f"  {name}: {v:.6g}")
    m = {name: metric(values.get(name, 0), unit) for name, unit in PER_LAYER}
    return not problems, len(results), failed, m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up in this process and exit")
    args = p.parse_args(argv)
    if not (SRC / "dmm" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.setup_only:
        workload, inputs, secs = do_setup(args.workload, args.seed)
        workload.teardown(inputs)
        print(json.dumps({"setup_s": secs}))
        return 0
    ok, attempted, failed, metrics = (traced if args.trace else
                                      untraced)(args)
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
