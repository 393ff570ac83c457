"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(autouse=True)
def alarm_handler():
    import signal
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


def _bindings():
    return {(name, attr): value
            for name, mod in sorted(sys.modules.items())
            if name == "dmm" or name.startswith("dmm.")
            for attr, value in vars(mod).items() if callable(value)}


def test_wrappers_restore_every_namespace():
    import dmm.cli
    import dmm.enumeration
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings()
        # the stage names the enumerator resolves at call time
        for attr in ("_lattices", "_involutions", "_fusion_tables",
                     "validate_dmm", "canonical_form"):
            assert during["dmm.enumeration", attr] is not \
                before["dmm.enumeration", attr]
        # a function is wrapped in every namespace that imported it
        assert dmm.cli.enumerate_algebras is not before[
            "dmm.enumeration", "enumerate_algebras"]
        assert during["dmm.filters", "classify"] is not \
            before["dmm.filters", "classify"]
        assert during["dmm.structure", "classify"] is not \
            before["dmm.structure", "classify"]
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_absent_name_is_reported_not_raised(monkeypatch):
    gone = spans.Target("dmm.enumeration", "_no_such_stage",
                        "enumeration.no_such_stage", generator=True,
                        hook="lattices")
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [gone])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["enumeration.no_such_stage "
                             "(dmm.enumeration._no_such_stage)"]


def test_self_times_cover_the_traced_call():
    from dmm.constructions import make_named
    A = make_named("S5")
    tracer = spans.Tracer()
    tracer.install()
    try:
        import dmm.structure
        root = tracer.open(tracer.name_id("bench.pass"))
        dmm.structure.lollipop(A)
        tracer.close(root)
    finally:
        tracer.uninstall()
    selfs, totals, counts = tracer.self_times("bench.pass")
    wall = tracer.end[root] - tracer.start[root]
    assert counts["structure.lollipop"] == 1
    assert counts["algebra.validate_dmm"] == 1
    assert abs(sum(selfs.values()) - wall) < 1e-9
    assert totals["structure.lollipop"] >= selfs["structure.lollipop"]


def test_deadline_fires_on_known_hang():
    from dmm.constructions import canonical_form, make_named
    A = make_named("S12")
    tracer = spans.Tracer()
    tracer.install()
    try:
        import dmm.constructions as c
        r = run.call_with_deadline("S12:canonical_form",
                                   lambda: c.canonical_form(A), 0.2, tracer)
    finally:
        tracer.uninstall()
    assert (r.status, r.latency) == ("deadline", 0.2)
    assert tracer.stack == [-1]
    assert tracer.counts["constructions.canonical_form.failed"] == 1
    # the alarm is disarmed: a quick call afterwards completes
    ok = run.call_with_deadline("S5", lambda: canonical_form(make_named("S5")),
                                0.2)
    assert ok.status == "ok"


def test_injected_wrong_count_fails_the_run(monkeypatch, capsys):
    import dmm.cli
    real = dmm.cli.enumerate_algebras

    def drops_one(spec, **kw):
        cat = real(spec, **kw)
        if spec.size == 4:
            cat.algebras.pop()
        return cat

    monkeypatch.setattr(wl, "ENUM_SIZES", {"dmm": range(1, 6),
                                           "irl": range(1, 4)})
    monkeypatch.setattr(run, "setup_samples", lambda name, seed: [])
    monkeypatch.setattr(dmm.cli, "enumerate_algebras", drops_one)
    rc = run.main(["--workload", "enumerate", "--seed", "1", "--seconds",
                   "0"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert "WRONG: dmm-4: count 3, expected 4" in out
    assert json.loads(out[-1])["correct"] is False


def test_calibration_scales_work_by_the_loop_time_around_it():
    cal = calibrate.Calibrator()
    n = calibrate.NOMINAL_S
    # samples [1, 1+n), [3, 3+2n), [5, 5+2n), [7, 7+2n): the machine runs
    # at nominal speed, then at half speed
    for start, loop in ((1, n), (3, 2 * n), (5, 2 * n), (7, 2 * n)):
        cal.starts.append(start)
        cal.ends.append(start + loop)
        cal.times.append(loop)
    # [0, 1) by the median of samples 0 and 1; [1+n, 3) by that of 0..2;
    # [3+2n, 4) by that of 0..3
    want = 1 / 1.5 + (2 - n) / 2 + (1 - 2 * n) / 2
    assert cal.calibrated(0, 4) == pytest.approx(want)
    assert cal.calibrated(5 + 2 * n, 6) == pytest.approx((1 - 2 * n) / 2)


def test_calibrator_samples_inside_calls_and_keeps_them_out():
    import signal
    cal = calibrate.Calibrator()
    cal.install()
    try:
        def busy():
            t = perf_counter()
            while perf_counter() - t < 0.5:
                pass
        r = run.call_with_deadline("busy", busy, 5.0, cal=cal)
    finally:
        cal.uninstall()
    assert signal.getsignal(signal.SIGVTALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert len(cal.times) >= 2
    assert 0.45 < r.latency < 0.5


def _one_pass(name, seed):
    w = wl.WORKLOADS[name]()
    inputs = w.setup(seed)
    try:
        results = [run.call_with_deadline(label, fn, deadline)
                   for label, fn, deadline in w.ops(inputs, 0)]
        return results, w.check(inputs, 0, results)
    finally:
        w.teardown(inputs)


def test_two_seeds_give_identical_verdicts():
    h1, p1 = _one_pass("harness", 1)
    h2, p2 = _one_pass("harness", 2)
    assert p1 == p2 == []
    assert wl.tally([r.value for r in h1]) == wl.tally([r.value for r in h2])
    q1, p1 = _one_pass("queries", 1)
    q2, p2 = _one_pass("queries", 2)
    assert p1 == p2 == []
    assert len(q1) == len(q2) == 15 * 13 - len(wl.KNOWN_HANGS)
    for a, b in zip(q1, q2):
        call = a.label.split(":")[1]
        if call not in ("canonical_form", "quotient"):
            assert wl.summarize(call, a.value) == wl.summarize(call, b.value)


def test_oracle_agrees_with_library_on_small_catalogs():
    from dmm.algebra import FiniteIRL
    from dmm.filters import classify, deductive_filters
    with open(wl.DATA / "dmm_catalogs.json") as fh:
        catalogs = json.load(fh)
    for n in map(str, range(1, 7)):
        for d in catalogs[n]:
            A = FiniteIRL.from_dict(d)
            c = classify(A)
            filters = oracle.deductive_filters(d)
            assert len(filters) == len(deductive_filters(A))
            assert oracle.classify_from_filters(A.size, filters) == (
                c.simple, c.si, c.fsi)


def test_benchmark_json_names_what_the_runs_report():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_cal_s", "peak_rss_mb"]
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)


def test_refuses_to_run_without_the_library():
    root = HERE / "out" / "bare"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", root)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "queries",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(root)
    assert proc.returncode != 0
    assert proc.stdout == ""
