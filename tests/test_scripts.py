import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("flags", [["--min-size", "0"], ["--max-size", "9"]])
def test_build_catalogs_checks_sizes_before_search(tmp_path, flags):
    out = tmp_path / "catalogs"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "build_catalogs.py"),
         "--out-dir", str(out), *flags],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr
    assert proc.stdout == "" and not out.exists()


def test_sugihara_tower_checks_max_before_work():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sugihara_tower.py"),
         "--max", "99999999"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr
    assert proc.stdout == ""


def test_sugihara_tower_surjections_to_24():
    # S_2m maps onto S_2m-1 in exactly one way, identifying m-1 and m; the
    # tower finds it from the quotients, without listing every homomorphism
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sugihara_tower.py"),
         "--max", "24"],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    lines = [ln.strip() for ln in proc.stdout.splitlines()
             if ln.startswith("    ")]
    want = []
    for m in range(2, 13):
        h = (*range(m), *range(m - 1, 2 * m - 1))
        want += [f"maps onto S{2 * m - 1}: 1 surjection(s)",
                 f"surjection {h}, identifies [({m - 1}, {m})]"]
    assert lines == want


def test_fusion_digest_pins_dmm8():
    # the tables and prune total of the fusion DFS over the triples the
    # enumerator searches at dmm-8 and at irl-6, where neither
    # square-increasingness nor distributivity prunes, and at dmm-11 and
    # irl-8, above the ceiling, where cells with several values in their
    # domain are common; the same script compares versions of the DFS at
    # larger sizes
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    pins = {
        ("dmm", "8"):
        "dmm-8: 62 triples, 103 tables, 14573 pruned, sha256 28e83128f17c26c4"
        "452bb2391dc052533bae4d5159f1a513f3468aa912995b03, dfs ",
        ("irl", "6"):
        "irl-6: 56 triples, 110 tables, 4729 pruned, sha256 9fbd190d8e60565b"
        "d7bfa3c214299434d8ab6f021ea663ac92cde02a22120356, dfs ",
        ("dmm", "11"):
        "dmm-11: 65 triples, 781 tables, 285997 pruned, sha256 b73a63a4d691d7"
        "bec94775a037d162338499a6158eaadd10d52585dd6df12037, dfs ",
        ("irl", "8"):
        "irl-8: 386 triples, 1793 tables, 234971 pruned, sha256 403fbf771baa"
        "a3372fa60062b69f376c652275d1a9f0d9799cf9398c96b7369e, dfs ",
    }
    for (klass, size), want in pins.items():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "fusion_digest.py"),
             "--class", klass, "--size", size],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(want)


def test_law_digest_pins_dmm6_irl4():
    # every validation report, RA report of the reduct and LAW_LIBRARY
    # satisfies result on the dmm catalogs n <= 6 and irl n <= 4, then the
    # three reports on seeded symmetric corruptions of each entry, which
    # carry the walks' witnesses; the same script compares versions of the
    # checks on the larger catalogs and the corpus
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "scripts" / "law_digest.py")
    proc = subprocess.run(
        [sys.executable, script, "--dmm", "6", "--irl", "4", "--no-corpus"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "41 algebras, 2091 results, sha256 de09042f7b7fa52769d7a937edfcc48f"
        "95ce4e6596dffadec466e31ef78fe074, checks ")
    assert proc.stdout.splitlines()[1].startswith(
        "164 corruptions, 492 reports, sha256 d8ef1cb2ef00d11416c0e866d1a16783"
        "738a3efecdf194e1a65ae7cc3e1e1306, checks ")
    # every check_derived_laws report on the same inputs and corruptions,
    # frozen while the battery still ran one satisfies call per statement
    assert proc.stdout.splitlines()[2].startswith(
        "205 law batteries, sha256 d79ba9d94d1b808e7b3ca1823f746795e2d51cbe"
        "2b174483efc2a23272b992a5, checks ")
    proc = subprocess.run([sys.executable, script, "--dmm", "9"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr


def test_hs_digest_pins_dmm6_irl5():
    # every quotient, homs list against the basic algebras, is_isomorphic
    # and hs_contains answer on the dmm catalogs n <= 6 and irl n <= 5,
    # frozen before the embedding search got its own prune; the same script
    # compares versions of the searches on the larger catalogs and the
    # corpus.  The second line digests their canonical forms, frozen while
    # canonical_form walked the linear extensions twice
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "scripts" / "hs_digest.py")
    proc = subprocess.run(
        [sys.executable, script, "--dmm", "6", "--irl", "5", "--no-corpus"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "62 algebras, 1014 results, sha256 b771809da08c1e2b5a69363e8a40a675"
        "51bea18e446fd5ac0123687eb21ec17b, searches ")
    assert proc.stdout.splitlines()[1].startswith(
        "62 forms, sha256 5f8028db468c8d5e0f1b0768094ce0c8483ebe87bdb93b"
        "50584d514238cb4749, canonical ")
    proc = subprocess.run([sys.executable, script, "--irl", "9"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr


def test_ra_digest_pins_dmm6_irl5():
    # every relevant-algebra answer (meet property, dfg_oracle and
    # dfg_ra_set on the empty set, singletons and pairs, dfg_ra,
    # ra_classify, reconstruct_neutral, contains_two_reduct) on the reducts
    # of the dmm catalogs n <= 6 and irl n <= 5 and of their seeded
    # corruptions, frozen before the checks read up-set masks; the same
    # script compares versions of the checks on the larger catalogs and
    # the corpus
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "scripts" / "ra_digest.py")
    proc = subprocess.run(
        [sys.executable, script, "--dmm", "6", "--irl", "5", "--no-corpus"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "310 reducts, 7495 results, sha256 0a58614c169c43259ce32b853d7fa8af"
        "317ed68fb6a59a210ab98b65b004696b, checks ")
    proc = subprocess.run([sys.executable, script, "--dmm", "9"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "error:" in proc.stderr


def test_catalog_digest_pins_dmm8():
    # the digest of the bytes `dmm enumerate` writes, as pinned for the
    # library; the same script compares enumerators above the ceiling
    from test_enumeration import ENUMERATED_SHA256
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "catalog_digest.py"),
         "--class", "dmm", "--size", "8"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        f"dmm-8: 92 classes, sha256 {ENUMERATED_SHA256['dmm', 8]}, wall ")
