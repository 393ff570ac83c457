import argparse
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmm.cli import _json_text, build_parser, main
from dmm.constructions import (MAX_NAMED_SIZE, NAMED_BASIC, direct_product,
                               e_free_reduct, make_named)
from dmm.enumeration import Catalog
from dmm.relevant import dfg_oracle


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_validate_named_pass(capsys):
    code, out, _ = run(capsys, "validate", "--algebra", "C4")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_broken_algebra_exits_1(capsys, tmp_path):
    A = make_named("2")
    d = A.to_dict()
    d["fusion"][0][0] = 1    # break bottom-absorption / monotonicity
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    code, out, _ = run(capsys, "validate", "--algebra", str(p))
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"] and payload["violations"]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "validate")[0] == 2
    assert run(capsys, "validate", "--algebra", "Q99")[0] == 2
    assert run(capsys, "satisfies", "--algebra", "2")[0] == 2
    code, _, err = run(capsys, "satisfies", "--algebra", "2",
                       "--statement", "x * y")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("name", ["S99999999", "C4ext_99999999",
                                  f"S{MAX_NAMED_SIZE + 1}", "C4ext_31"])
def test_named_algebra_above_size_limit_exits_2_at_once(capsys, name):
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "--algebra", name)
    assert code == 2 and out == "" and "error:" in err
    assert f"limit of {MAX_NAMED_SIZE}" in err
    assert time.perf_counter() - start < 1


def test_named_algebras_within_size_limit_build():
    # C4ext_k has 4 + 2k elements, so C4ext_30 is at the limit
    assert [make_named(nm).size for nm in ("S12", "C4ext_4", "C4ext_30")] \
        == [12, 12, MAX_NAMED_SIZE]


def test_satisfies_pass_and_fail(capsys):
    code, out, _ = run(capsys, "satisfies", "--algebra", "2",
                       "--statement", "x <= e")
    assert code == 0 and json.loads(out)["ok"]
    code, out, _ = run(capsys, "satisfies", "--algebra", "D4",
                       "--statement", "e <= (x -> y) \\/ (y -> x)")
    assert code == 1
    r = json.loads(out)["results"][0]
    assert r["counterexample"] == {"x": 1, "y": 2}


def test_satisfies_statement_file(capsys, tmp_path):
    p = tmp_path / "laws.txt"
    p.write_text("x <= x * x\ne <= x \\/ ~x\n")
    code, out, _ = run(capsys, "satisfies", "--algebra", "C4",
                       "--statement", f"@{p}")
    assert code == 0
    assert len(json.loads(out)["results"]) == 2


@pytest.mark.parametrize("text", ["", "\n  \n", "# laws\n  # none yet\n"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_satisfies_empty_statement_file_exits_2(capsys, tmp_path, text, fmt):
    p = tmp_path / "laws.txt"
    p.write_text(text)
    code, out, err = run(capsys, "satisfies", "--algebra", "S3",
                         "--statement", f"@{p}", "--format", fmt)
    assert code == 2 and out == ""
    assert err == f"error: {p}: no statements\n"


def test_satisfies_statement_file_parse_error_names_line(capsys, tmp_path):
    p = tmp_path / "laws.txt"
    p.write_text("x <= x\n=> x\n")
    code, out, err = run(capsys, "satisfies", "--algebra", "S3",
                         "--statement", f"@{p}")
    assert code == 2 and out == ""
    assert err.startswith("error: line 2: unexpected token '=>' at position 0")
    assert len(err.splitlines()) == 1


def test_satisfies_binary_statement_file_exits_2(capsys, tmp_path):
    p = tmp_path / "laws.bin"
    p.write_bytes(b"\xff\xfe\x00 x <= e\n")
    code, out, err = run(capsys, "satisfies", "--algebra", "S3",
                         "--statement", f"@{p}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not a text file" in err


def test_satisfies_statement_file_name_with_nul_exits_2(capsys):
    code, out, err = run(capsys, "satisfies", "--algebra", "S3",
                         "--statement", "@laws\x00.txt")
    assert code == 2 and out == ""
    assert err == "error: 'laws\\x00.txt': embedded null byte\n"


@pytest.mark.parametrize("statement", [
    "(" * 2000 + "x" + ")" * 2000 + " <= x",
    "~" * 3000 + "x <= x",
    " -> ".join(["x"] * 3000) + " <= x",
    " * ".join(["x"] * 3000) + " <= x",
])
def test_satisfies_deep_statement_exits_2(capsys, statement):
    code, out, err = run(capsys, "satisfies", "--algebra", "S3",
                         "--statement", statement)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nested deeper" in err


def test_satisfies_statement_at_nesting_bound(capsys):
    from dmm.terms import MAX_DEPTH
    code, out, _ = run(capsys, "satisfies", "--algebra", "S3",
                       "--statement",
                       "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH + " <= x")
    assert code == 0 and json.loads(out)["ok"]


def test_classify_text_format(capsys):
    code, out, _ = run(capsys, "classify", "--algebra", "S5",
                       "--format", "text")
    assert code == 0
    assert "si: True" in out and "simple: False" in out


def test_analyze_with_hasse(capsys):
    code, out, _ = run(capsys, "analyze", "--algebra", "C4ext_1",
                       "--format", "text", "--hasse")
    assert code == 0
    assert "[e]" in out and "interval" in out


def test_construct_roundtrip(capsys):
    code, out, _ = run(capsys, "construct", "--algebra", "S4")
    assert code == 0
    d = json.loads(out)
    assert d["size"] == 4 and d["e"] == 2


def test_construct_unknown_name_exits_2(capsys, tmp_path):
    # construct builds named algebras only: a table file that construct
    # --out wrote, or a name it does not know, is one error line naming
    # the problem
    path = tmp_path / "s3.json"
    assert run(capsys, "construct", "--algebra", "S3", "--out",
               str(path))[0] == 0
    for name in (str(path), "Foo"):
        code, out, err = run(capsys, "construct", "--algebra", name)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: unknown algebra name {name!r} (the names are "
            "2, S3, C4, D4, Sn, S_n, C4ext_k)"]
    with pytest.raises(SystemExit):
        main(["construct", "--help"])
    assert "named algebra: 2, S3, C4, D4, Sn, S_n, C4ext_k" in \
        capsys.readouterr().out


def test_enumerate_to_file(capsys, tmp_path):
    p = tmp_path / "cat.json"
    code, out, _ = run(capsys, "enumerate", "--size", "4", "--out", str(p))
    assert code == 0 and "4 algebra(s)" in out
    assert len(Catalog.from_json(p.read_text()).algebras) == 4


def test_enumerate_to_missing_directory_exits_2_before_search(
        capsys, monkeypatch, tmp_path):
    def no_search(*a, **kw):
        raise AssertionError("searched")

    monkeypatch.setattr("dmm.cli.enumerate_algebras", no_search)
    p = tmp_path / "missing" / "cat.json"
    code, out, err = run(capsys, "enumerate", "--size", "8", "--out", str(p))
    assert code == 2 and out == "" and "no such directory" in err
    assert not p.parent.exists()


def test_homs_and_iso(capsys):
    code, out, _ = run(capsys, "homs", "--algebra", "S4", "--algebra2", "S3")
    assert code == 0
    maps = json.loads(out)
    assert sum(1 for m in maps if m["surjective"]) == 1
    assert run(capsys, "iso", "--algebra", "C4", "--algebra2", "D4")[0] == 1
    assert run(capsys, "iso", "--algebra", "C4", "--algebra2", "C4")[0] == 0


def test_iso_on_relabelled_files(capsys, tmp_path):
    def write(name, A):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(A.to_dict()))
        return str(p)

    two = make_named("2")
    two4 = direct_product(direct_product(two, two), direct_product(two, two))
    a = write("a", two4.relabel([(5 * i + 3) % 16 for i in range(16)]))
    b = write("b", two4.relabel([(7 * i + 2) % 16 for i in range(16)]))
    code, out, _ = run(capsys, "iso", "--algebra", a, "--algebra2", b)
    assert code == 0 and json.loads(out) == {"isomorphic": True}
    C4, D4 = make_named("C4"), make_named("D4")
    c = write("c", direct_product(C4, C4))
    d = write("d", direct_product(D4, D4))
    code, out, _ = run(capsys, "iso", "--algebra", c, "--algebra2", d)
    assert code == 1 and json.loads(out) == {"isomorphic": False}


def test_iso_on_former_near_hang_file(capsys, tmp_path):
    # is_isomorphic(2^6, 2^6) walked every endomorphism before the embedding
    # search refused taken values, about three minutes
    def write(name, A):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(A.to_dict()))
        return str(p)

    def power(name, k):
        A = make_named(name)
        for _ in range(k - 1):
            A = direct_product(A, make_named(name))
        return A

    a, d = write("two6", power("2", 6)), write("d4_3", power("D4", 3))
    start = time.perf_counter()
    assert run(capsys, "iso", "--algebra", a, "--algebra2", a)[0] == 0
    assert run(capsys, "iso", "--algebra", a, "--algebra2", d)[0] == 1
    assert time.perf_counter() - start < 5.0


def test_quotient_and_dfg(capsys):
    code, out, _ = run(capsys, "quotient", "--algebra", "S5",
                       "--generators", "1")
    assert code == 0
    d = json.loads(out)
    assert d["projection"] == [0, 1, 1, 1, 2]
    assert d["quotient"]["size"] == 3
    code, out, _ = run(capsys, "dfg", "--algebra", "C4", "--generators", "")
    assert json.loads(out)["filter"] == [1, 2, 3]


def test_generators_out_of_range_exit_2(capsys):
    code, out, err = run(capsys, "dfg", "--algebra", "C4", "--generators",
                         "-1")
    assert code == 2 and out == "" and "error:" in err
    code, out, err = run(capsys, "quotient", "--algebra", "C4",
                         "--generators", "9")
    assert code == 2 and out == "" and "error:" in err


def test_quotient_and_dfg_of_non_irl_exit_2(capsys, tmp_path):
    # well-formed tables that are no IRL: one error line naming the laws,
    # not a traceback from the filter code (quotient) or an answer (dfg)
    p = tmp_path / "not-irl.json"
    p.write_text(json.dumps({
        "size": 4,
        "meet": [[0, 0, 0, 0], [0, 1, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]],
        "join": [[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]],
        "fusion": [[3, 3, 1, 2], [2, 0, 3, 0], [1, 3, 2, 3], [0, 3, 0, 2]],
        "neg": [3, 1, 1, 1], "e": 0}))
    for command in ("quotient", "dfg"):
        code, out, err = run(capsys, command, "--algebra", str(p))
        assert code == 2 and out == "", command
        assert err.startswith("error: not an IRL: ") and "e-neutral" in err
        assert err.count("\n") == 1, command


def test_classify_and_dfg_outside_their_class_exit_2(capsys, tmp_path):
    # the pointed table above, and RA tables whose meet is not commutative:
    # classify and dfg refuse them with one error line, as validate fails
    # them, and print no flags or filter
    irl = tmp_path / "not-irl.json"
    irl.write_text(json.dumps({
        "size": 4,
        "meet": [[0, 0, 0, 0], [0, 1, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]],
        "join": [[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]],
        "fusion": [[3, 3, 1, 2], [2, 0, 3, 0], [1, 3, 2, 3], [0, 3, 0, 2]],
        "neg": [3, 1, 1, 1], "e": 0}))
    ra = tmp_path / "not-ra.json"
    ra.write_text(json.dumps({
        "signature": "RA", "size": 2, "meet": [[0, 1], [0, 0]],
        "join": [[0, 0], [0, 0]], "fusion": [[0, 0], [0, 0]],
        "neg": [0, 1]}))
    for argv, want in ((("classify", "--algebra", str(irl)), "an IRL"),
                       (("classify", "--class", "ra", "--algebra", str(ra)),
                        "a relevant algebra"),
                       (("dfg", "--class", "ra", "--algebra", str(ra)),
                        "a relevant algebra")):
        code, _, _ = run(capsys, "validate", *argv[1:])
        assert code == 1, argv
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: not {want}: ") and "commutative" in err
        assert err.count("\n") == 1, argv


def test_enumerate_size_zero_exits_2(capsys):
    code, _, err = run(capsys, "enumerate", "--size", "0")
    assert code == 2 and "error:" in err


def test_satisfies_too_many_variables_exits_2(capsys):
    code, _, err = run(capsys, "satisfies", "--algebra", "C4",
                       "--statement", "x*y*z*u*v<=e")
    assert code == 2 and "error:" in err


def test_satisfies_checks_each_file_statement_on_its_own(capsys, tmp_path):
    # six variables between them, at most four in each: each statement is
    # its own walk, where one battery of both would pass the cap
    from dmm.terms import (TooManyVariables, first_counterexamples,
                           statements_from_text)
    text = "x1 /\\ x2 /\\ x3 <= x1\nx4 <= x4 \\/ x5 \\/ x6\n"
    p = tmp_path / "laws.txt"
    p.write_text(text)
    code, out, err = run(capsys, "satisfies", "--algebra", "C4",
                         "--statement", f"@{p}")
    assert code == 0 and err == ""
    assert [r["holds"] for r in json.loads(out)["results"]] == [True, True]
    with pytest.raises(TooManyVariables):
        first_counterexamples(make_named("C4"),
                              tuple(statements_from_text(text)))


def test_reduct_signature(capsys):
    code, out, _ = run(capsys, "reduct", "--algebra", "C4")
    assert code == 0
    assert json.loads(out)["signature"] == "RA"


def test_validate_reduct_file_reports_class_ra(capsys, tmp_path):
    # a file with "signature": "RA" is validated as a relevant algebra
    # under any --class, and the payload names the class it was checked in
    p = tmp_path / "S3-.json"
    assert run(capsys, "reduct", "--algebra", "S3", "--out", str(p))[0] == 0
    for klass in ("dmm", "irl", "ra"):
        code, out, _ = run(capsys, "validate", "--class", klass,
                           "--algebra", str(p))
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True, klass
        assert payload["class"] == "ra", klass


def test_named_beats_file_with_warning(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "C4").write_text("not json")
    code, _, err = run(capsys, "classify", "--algebra", "C4")
    assert code == 0 and "warning:" in err


def test_suite_small(capsys):
    code, out, _ = run(capsys, "suite", "--size", "4")
    assert code == 0
    assert "[FAIL]" not in out and "[PASS]" in out


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("meet"),                             # missing key
    lambda d: d["fusion"][1].__setitem__(0, "x"),        # non-integer entry
    lambda d: d["join"].pop(),                           # wrong shape
    lambda d: d.__setitem__("neg", d["neg"][:-1]),       # short neg
    lambda d: d.__setitem__("e", 7),                     # e out of range
    lambda d: d["meet"][0].__setitem__(0, True),         # boolean entry
], ids=["missing-key", "non-integer", "wrong-shape", "short-neg",
        "e-out-of-range", "boolean"])
def test_malformed_algebra_file_exits_2(capsys, tmp_path, mutate):
    d = make_named("C4").to_dict()
    mutate(d)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    code, out, err = run(capsys, "validate", "--algebra", str(p))
    assert code == 2 and out == "" and "error:" in err


def test_malformed_ra_file_exits_2(capsys, tmp_path):
    d = make_named("C4").to_dict()
    del d["e"]
    p = tmp_path / "ra.json"
    p.write_text(json.dumps(d))
    assert run(capsys, "validate", "--class", "ra", "--algebra", str(p))[0] == 0
    del d["fusion"]
    p.write_text(json.dumps(d))
    code, out, err = run(capsys, "validate", "--class", "ra",
                         "--algebra", str(p))
    assert code == 2 and out == "" and "fusion" in err


def test_algebra_file_shapes_exit_2(capsys, tmp_path):
    for text in ('{"size": 2}', "[1, 2, 3]", '"C4"', "null"):
        p = tmp_path / "bad.json"
        p.write_text(text)
        code, out, err = run(capsys, "validate", "--algebra", str(p))
        assert code == 2 and out == "" and "error:" in err, text


def test_suite_size_out_of_range_exits_2_before_search(capsys, monkeypatch):
    def no_search(*a, **kw):
        raise AssertionError("searched")

    monkeypatch.setattr("dmm.cli.enumerate_algebras", no_search)
    for size in ("0", "-1", "9"):
        code, out, err = run(capsys, "suite", "--size", size)
        assert code == 2 and out == "" and "error:" in err, size


@pytest.mark.parametrize("argv", [
    ["validate", "--algebra", "C4", "--algebra2", "Q99"],
    ["suite", "--size", "2", "--out", "x.json"],
    ["construct", "--algebra", "C4", "--class", "ra"],
    ["reduct", "--algebra", "C4", "--format", "text"],
    ["enumerate", "--size", "2", "--format", "text"],
    ["analyze", "--algebra", "C4", "--class", "ra"],
], ids=["validate-algebra2", "suite-out", "construct-class", "reduct-format",
        "enumerate-format", "analyze-class"])
def test_flag_of_another_command_exits_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    cap = capsys.readouterr()
    assert exc.value.code == 2 and cap.out == ""
    assert "unrecognized arguments" in cap.err
    assert list(tmp_path.iterdir()) == []


def test_missing_required_flag_names_it(capsys):
    for argv, flag in ((["homs", "--algebra", "C4"], "--algebra2"),
                       (["iso", "--algebra2", "C4"], "--algebra"),
                       (["enumerate"], "--size")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"error: {argv[0]} needs {flag}" in err, argv


def test_suite_default_size_is_4(capsys):
    code, out, _ = run(capsys, "suite")
    assert code == 0 and "sizes 1..4" in out and "size 4:" in out


def test_classify_named_as_ra(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "--class", "ra", "--algebra", "C4")
    assert code == 0
    d = json.loads(out)
    assert "deductive_filters" in d and "subcover" not in d
    p = tmp_path / "ra.json"
    p.write_text(json.dumps(e_free_reduct(make_named("C4")).to_dict()))
    for cmd, *extra in (("analyze",), ("homs", "--algebra2", "C4"),
                        ("iso", "--algebra2", "C4"),
                        ("quotient", "--generators", "1"), ("reduct",)):
        code, out, err = run(capsys, cmd, "--algebra", str(p), *extra)
        assert code == 2 and out == "" and "expects a pointed" in err, cmd


def test_flags_per_subcommand():
    # each subcommand accepts only the flags its handler reads
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {name: [o for a in sp._actions for o in a.option_strings
                    if o not in ("-h", "--help")]
             for name, sp in sub.choices.items()}
    emit = ["--format", "--out"]
    assert flags == {
        "validate": ["--algebra", "--class", *emit],
        "classify": ["--algebra", "--class", *emit],
        "analyze": ["--algebra", *emit, "--hasse"],
        "satisfies": ["--algebra", "--statement", *emit],
        "construct": ["--algebra", *emit],
        "enumerate": ["--size", "--class", "--out", "--unsafe-size"],
        "homs": ["--algebra", "--algebra2", *emit],
        "iso": ["--algebra", "--algebra2", *emit],
        "quotient": ["--algebra", *emit, "--generators"],
        "reduct": ["--algebra", "--out"],
        "dfg": ["--algebra", "--class", *emit, "--generators"],
        "suite": ["--size", "--unsafe-size"],
    }
    assert sum(map(len, flags.values())) == 44


@pytest.mark.parametrize("command, klass", [
    ("enumerate", "ra"), ("suite", "ra"), ("suite", "irl"),
], ids=["enumerate", "suite", "suite-irl"])
def test_search_class_ra_exits_2_before_search(capsys, monkeypatch, command,
                                               klass):
    # suite takes no --class: it runs harnesses that are about DMMs
    def no_search(*a, **kw):
        raise AssertionError("searched")

    monkeypatch.setattr("dmm.cli.enumerate_algebras", no_search)
    with pytest.raises(SystemExit) as exc:
        main([command, "--class", klass, "--size", "2"])
    cap = capsys.readouterr()
    assert exc.value.code == 2 and cap.out == ""
    assert "error:" in cap.err and "Traceback" not in cap.err


def test_parser_reused_with_fresh_arguments(capsys):
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "dfg", "--algebra", "S5", "--generators", "1")
    assert code == 0 and json.loads(out)["generators"] == [1]
    code, out, _ = run(capsys, "classify", "--algebra", "S5",
                       "--format", "text")
    assert code == 0 and "si: True" in out
    code, out, _ = run(capsys, "dfg", "--algebra", "S5")
    assert code == 0 and json.loads(out)["generators"] == []


def test_dfg_ra_empty_generators_is_least_filter(capsys):
    for nm in NAMED_BASIC + ("S4", "S5", "C4ext_1"):
        R = e_free_reduct(make_named(nm))
        code, out, _ = run(capsys, "dfg", "--class", "ra", "--algebra", nm)
        assert code == 0
        assert json.loads(out)["filter"] == \
            dfg_oracle(R, ()).sorted_members(), nm


# ---- fuzz of the table-file boundary -----------------------------------------

_JUNK = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                  st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2))
_SMALL_NAMED = [json.dumps(make_named(nm).to_dict())
                for nm in ("2", "S3", "C4", "D4", "S4")]


def _chance(draw, k):
    """True with probability 1/k."""
    return draw(st.integers(0, k - 1)) == 0


def _entry(draw, n):
    # mostly in range, sometimes out of range, sometimes not an integer
    if _chance(draw, 4):
        return draw(st.one_of(st.integers(-2, n + 2), _JUNK))
    return draw(st.integers(0, n - 1))


@st.composite
def _table_files(draw):
    """JSON values aimed at the table-file loader: the tables of an algebra
    of size <= 4 with a few entries overwritten, random tables with bent
    shapes, or junk."""
    if _chance(draw, 8):
        return draw(_JUNK)
    if draw(st.booleans()):
        d = json.loads(draw(st.sampled_from(_SMALL_NAMED)))
        n = d["size"]
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.sampled_from(["meet", "join", "fusion", "neg", "e"]))
            if k == "e":
                d["e"] = _entry(draw, n)
            elif k == "neg":
                d["neg"][draw(st.integers(0, n - 1))] = _entry(draw, n)
            else:
                row = d[k][draw(st.integers(0, n - 1))]
                row[draw(st.integers(0, n - 1))] = _entry(draw, n)
    else:
        n = draw(st.integers(1, 4))

        def length():
            return draw(st.integers(max(0, n - 1), n + 1)) \
                if _chance(draw, 4) else n

        def table():
            return [[_entry(draw, n) for _ in range(length())]
                    for _ in range(length())]

        d = {"size": n if not _chance(draw, 8) else _entry(draw, n),
             "meet": table(), "join": table(), "fusion": table(),
             "neg": [_entry(draw, n) for _ in range(length())],
             "e": _entry(draw, n)}
    if _chance(draw, 4):
        d.pop(draw(st.sampled_from(sorted(d))))
    if _chance(draw, 4):
        d["name"] = draw(st.one_of(st.text(max_size=3), _JUNK))
    if _chance(draw, 4):
        d["signature"] = draw(st.sampled_from(["RA", "IRL", 3]))
    return d


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=_table_files())
def test_fuzz_table_files_exit_cleanly(tmp_path_factory, d):
    # every outcome is a documented exit code, never an exception
    p = tmp_path_factory.getbasetemp() / "fuzz.json"
    p.write_text(json.dumps(d))
    for argv in (["validate"], ["classify"], ["classify", "--class", "ra"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--algebra", str(p)])
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv


# ---- fuzz of the statement boundary ------------------------------------------

# the grammar's tokens, ASCII and Unicode, and characters outside it
_STATEMENT_PIECES = (
    "x", "y", "z", "u", "w", "v1", "x_2", "e", "f", "*", "/\\", "\\/", "~",
    "->", "<=", "=", "=>", "&", "(", ")", "·", "∧", "∨", "¬", "→", "≤", "⟹",
    "⇒", " ", "\n", "#", "@", "/", "\\", "<", "-", ">", "!", "$", "0",
    "é", "\t", "\r", "\x00", "\u2028")
_statement_text = st.lists(st.sampled_from(_STATEMENT_PIECES),
                           max_size=30).map("".join)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(["2", "S3", "C4", "D4", "S4"]),
       text=_statement_text, mode=st.sampled_from(["inline", "@", "file"]),
       fmt=st.sampled_from(["json", "text"]))
def test_fuzz_satisfies_exits_cleanly(tmp_path_factory, name, text, mode,
                                      fmt):
    # every outcome is a documented exit code, never an exception; mode
    # "@" reads the text as a file name
    spec = text if mode == "inline" else "@" + text
    if mode == "file":
        p = tmp_path_factory.getbasetemp() / "laws.txt"
        p.write_text(text)
        spec = f"@{p}"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["satisfies", "--algebra", name, f"--statement={spec}",
                     "--format", fmt])
    assert code in (0, 1, 2), (text, code)
    assert "Traceback" not in err.getvalue(), text


_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(),
                       st.floats(allow_nan=False), st.text(max_size=4),
                       st.just(frozenset({1})))
_json_payload = st.recursive(_json_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.tuples(inner, inner),
    st.dictionaries(st.text(max_size=3), inner, max_size=3),
    st.dictionaries(st.integers(-3, 3), inner, max_size=3)), max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=_json_payload)
def test_json_text_is_json_dumps(payload):
    # the CLI's JSON writer gives the standard library's bytes, a frozenset
    # (no JSON type) included through default=str
    assert _json_text(payload) == json.dumps(payload, indent=2,
                                             sort_keys=True, default=str)
