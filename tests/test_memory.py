"""No reference cycles on the search paths.  Each test runs under the
no_cyclic_garbage fixture (tests/conftest.py): with the cycle collector off,
everything the body drops must be freed by reference counting alone.  A
recursive closure refers to itself through its own cell, so each search
deletes its name when it ends; a compiled battery's scope drops its run."""

import pytest

from dmm.cli import build_parser, main
from dmm.constructions import (canonical_form, direct_product, homs,
                               hs_contains, is_isomorphic, make_named)
from dmm.enumeration import (SearchSpec, _relabellings, axiomatization_check,
                             enumerate_algebras, relevant_harness,
                             theorem_harness)
from dmm.terms import COMPILED_CAP, _COMPILED, parse, satisfies

build_parser()  # built once per process, outside any guarded test body


def test_enumeration_leaves_no_cycles(no_cyclic_garbage):
    assert len(enumerate_algebras(SearchSpec(6)).algebras) > 0
    assert len(enumerate_algebras(SearchSpec.for_class("irl", 5))
               .algebras) > 0


def test_harnesses_leave_no_cycles(dmm_upto, no_cyclic_garbage):
    catalog = dmm_upto(6)
    assert theorem_harness(catalog).ok
    assert relevant_harness(catalog).ok
    assert axiomatization_check(catalog).ok


def test_queries_leave_no_cycles(no_cyclic_garbage):
    S3, S4, C4, D4 = (make_named(nm) for nm in ("S3", "S4", "C4", "D4"))
    B = direct_product(D4, S3)
    R = B.relabel(list(range(B.size))[::-1])
    assert len(homs(S4, S3)) > 0
    assert is_isomorphic(B, R)
    assert hs_contains(B, S3) and not hs_contains(S3, C4)
    assert canonical_form(B) == canonical_form(R)


def test_early_stopped_relabelling_walk_leaves_no_cycles(no_cyclic_garbage):
    # minimal points 0 and 2, with 1 above 0 only: (1, 2, 5) relabels it
    # to a smaller vector than its own (1, 3, 4), so `in` stops at a None
    below = [0b001, 0b011, 0b100]
    assert not None not in _relabellings(below, below)


def test_evicted_compiled_runs_leave_no_cycles(no_cyclic_garbage):
    A = make_named("S3")
    for _ in range(COMPILED_CAP + 76):
        assert satisfies(A, parse("x * e = x")).holds
    assert len(_COMPILED) == COMPILED_CAP


@pytest.mark.parametrize("argv", [
    ["validate", "--algebra", "C4"],
    ["classify", "--algebra", "D4"],
    ["analyze", "--algebra", "C4ext_2", "--hasse"],
    ["satisfies", "--algebra", "S4", "--statement", "x <= x * x"],
    ["construct", "--algebra", "S5"],
    ["enumerate", "--size", "4"],
    ["homs", "--algebra", "S4", "--algebra2", "S3"],
    ["iso", "--algebra", "D4", "--algebra2", "D4"],
    ["quotient", "--algebra", "S5", "--generators", "1"],
    ["reduct", "--algebra", "C4"],
    ["dfg", "--algebra", "C4", "--generators", "1"],
    ["suite", "--size", "5"],
], ids=lambda argv: argv[0])
def test_cli_leaves_no_cycles(argv, capsys, no_cyclic_garbage):
    assert main(argv) == 0
    assert capsys.readouterr().out
