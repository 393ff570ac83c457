"""Span tracing of calls into the library, installed from outside it.

``Tracer.install`` replaces each listed ``dmm`` function, in every loaded
``dmm.*`` module that binds it, by a wrapper that records a span (name,
start, end, parent) and counts.  Generator stages are timed per ``next()``.
Spans stay in memory in flat arrays; ``self_times`` derives self time
(duration minus the time covered by child spans) from them, and ``dump``
writes them out.  ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it is defined, the span name it gets,
    whether it is a generator, and an optional counting hook."""
    module: str
    attr: str
    span: str
    generator: bool = False
    hook: str | None = None


def _t(module, attrs, **kw):
    layer = module.split(".")[1]
    return [Target(module, a, f"{layer}.{a}", **kw) for a in attrs]


TARGETS = [
    Target("dmm.enumeration", "_lattices", "enumeration.lattices",
           generator=True, hook="lattices"),
    Target("dmm.enumeration", "_lattice_distributive",
           "enumeration.distributive", hook="distributive"),
    Target("dmm.enumeration", "_involutions", "enumeration.involutions",
           generator=True, hook="involutions"),
    Target("dmm.enumeration", "_fusion_tables", "enumeration.fusion",
           generator=True, hook="fusion"),
    Target("dmm.enumeration", "enumerate_algebras",
           "enumeration.enumerate_algebras", hook="enumerate"),
    *_t("dmm.enumeration", ["theorem_harness", "axiomatization_check"]),
    *_t("dmm.filters", ["classify", "omega", "quotient", "dfg", "filter_of",
                        "congruence_lattice"]),
    Target("dmm.filters", "deductive_filters", "filters.deductive_filters",
           hook="deductive_filters"),
    *_t("dmm.constructions", ["canonical_form", "is_isomorphic", "homs",
                              "hs_contains", "subuniverse", "sg",
                              "zero_generated", "e_free_reduct",
                              "make_named"]),
    *_t("dmm.algebra", ["validate_irl", "validate_dmm", "check_derived_laws",
                        "predicates"]),
    *_t("dmm.terms", ["satisfies", "law_statements"]),
    *_t("dmm.structure", ["splitting_check", "lollipop",
                          "fusion_pattern_check", "odd_sugihara_quotient"]),
    *_t("dmm.relevant", ["dfg_ra", "dfg_oracle", "validate_ra",
                         "meet_property_check", "ra_classify",
                         "reconstruct_neutral", "contains_two_reduct"]),
    Target("dmm.cli", "main", "cli.main"),
]

# Inside dmm.enumeration these functions are stages of the enumerator and
# get the stage's name; everywhere else they keep their own.
STAGE_ALIASES = {
    ("dmm.enumeration", "validate_dmm"): "enumeration.validate",
    ("dmm.enumeration", "validate_irl"): "enumeration.validate",
    ("dmm.enumeration", "canonical_form"): "enumeration.canonical",
}


def _dmm_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "dmm" or name.startswith("dmm.")) and m]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.generators: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # ---- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.end.append(math.nan)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def unwind(self, depth: int) -> None:
        """Close every span opened above ``depth`` on the stack (after an
        interrupt left some open)."""
        now = perf_counter()
        while len(self.stack) > depth:
            i = self.stack.pop()
            if math.isnan(self.end[i]):
                self.end[i] = now

    def self_times(self, root: str) -> tuple[dict[str, float],
                                             dict[str, float], dict[str, int]]:
        """Per span name, over the spans under a top-level span named
        ``root``: self time, total time (outermost spans of that name only,
        so recursion is not counted twice) and span count."""
        n = len(self.start)
        rid = self._ids.get(root, -1)
        inside = [False] * n
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            inside[i] = inside[p] if p >= 0 else self.name[i] == rid
            if p >= 0:
                child[p] += dur[i]
        selfs: dict[str, float] = defaultdict(float)
        totals: dict[str, float] = defaultdict(float)
        spans: dict[str, int] = defaultdict(int)
        for i in range(n):
            if not inside[i]:
                continue
            nm = self.names[self.name[i]]
            selfs[nm] += dur[i] - child[i]
            spans[nm] += 1
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                totals[nm] += dur[i]
        return selfs, totals, spans

    def dump(self, path) -> None:
        """Write the spans: a JSON header line with the span names, then one
        ``name_id parent start end`` line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "parent", "start",
                                             "end"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name[i]} {self.parent[i]} "
                         f"{self.start[i]:.9f} {self.end[i]:.9f}\n")

    # ---- wrappers ----------------------------------------------------------

    def _wrap(self, fn, span: str, target: Target):
        nid = self.name_id(span)
        tracer = self

        if target.generator:
            self.generators.add(span)
            start = getattr(self, f"_start_{target.hook}")
            step = getattr(self, f"_next_{target.hook}")

            @functools.wraps(fn)
            def gen_wrapper(*args, **kw):
                return tracer._timed_iter(fn(*args, **kw), nid, span,
                                          start(args, kw), step)
            return gen_wrapper

        hook = getattr(self, f"_hook_{target.hook}") if target.hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            i = tracer.open(nid)
            try:
                out = fn(*args, **kw)
            except BaseException:
                tracer.counts[span + ".failed"] += 1
                raise
            finally:
                tracer.close(i)
            if hook:
                hook(args, kw, out)
            return out
        return wrapper

    def _timed_iter(self, gen, nid, span, state, step):
        try:
            while True:
                i = self.open(nid)
                try:
                    value = next(gen)
                except StopIteration:
                    self.close(i)
                    step(state, None, True)
                    return
                except BaseException:
                    self.counts[span + ".failed"] += 1
                    self.close(i)
                    raise
                self.close(i)
                step(state, value, False)
                yield value
        finally:
            gen.close()

    def install(self) -> None:
        """Wrap every target in every loaded ``dmm.*`` module binding it.
        A target missing from its module is recorded as absent."""
        for target in TARGETS:
            try:
                home = importlib.import_module(target.module)
            except ModuleNotFoundError:
                home = None
            fn = getattr(home, target.attr, None)
            if fn is None:
                self.absent.append(f"{target.span} "
                                   f"({target.module}.{target.attr})")
                continue
            wrappers: dict[str, object] = {}
            for mod in _dmm_modules():
                for attr, value in list(vars(mod).items()):
                    if value is not fn:
                        continue
                    span = STAGE_ALIASES.get((mod.__name__, attr), target.span)
                    if span not in wrappers:
                        wrappers[span] = self._wrap(fn, span, target)
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[span])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    # ---- counting hooks (run outside the spans) -----------------------------

    def _start_lattices(self, args, kw):
        return None

    def _next_lattices(self, state, value, done):
        if not done:
            self.counts["enumeration.lattices.count"] += 1

    def _hook_enumerate(self, args, kw, out):
        self.counts["enumeration.classes"] += len(out.algebras)

    def _hook_distributive(self, args, kw, out):
        if out:
            self.counts["enumeration.distributive.kept"] += 1

    # The stage hooks read arguments by today's signatures and skip a count
    # they cannot find, so a changed signature loses a count, not the run.

    def _start_involutions(self, args, kw):
        self.counts["enumeration.involutions.calls"] += 1
        n = args[1] if len(args) > 1 else kw.get("n")
        if isinstance(n, int):
            self.counts["enumeration.involutions.permutations"] += \
                math.factorial(n)

    def _next_involutions(self, state, value, done):
        if not done:
            self.counts["enumeration.involutions.count"] += 1

    def _start_fusion(self, args, kw):
        self.counts["enumeration.fusion.triples"] += 1
        stats = args[5] if len(args) > 5 else kw.get("stats")
        if not (isinstance(stats, dict) and "pruned" in stats):
            stats = None
        return [stats, stats["pruned"] if stats is not None else 0]

    def _next_fusion(self, state, value, done):
        stats, before = state
        if stats is not None:
            state[1] = stats["pruned"]
            self.counts["enumeration.fusion.pruned"] += state[1] - before
        if not done:
            self.counts["enumeration.fusion.tables"] += 1

    def _hook_deductive_filters(self, args, kw, out):
        A = args[0] if args else kw["A"]
        self.counts["filters.deductive_filters.subsets"] += 2 ** (A.size - 1)
        self.counts["filters.deductive_filters.found"] += len(out)
