import gc

import pytest
from hypothesis import strategies as st

from dmm.constructions import make_named
from dmm.enumeration import Catalog, SearchSpec, enumerate_algebras
from test_enumeration_oracles import slow_count


@pytest.fixture
def no_cyclic_garbage():
    """Fail the test if its body leaves garbage that only the cycle
    collector can free: the collector is off while the body runs, so
    reference counting alone must free everything the body dropped."""
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(scope="session")
def named():
    return {nm: make_named(nm)
            for nm in ("2", "S3", "C4", "D4", "S4", "S5",
                       "C4ext_1", "C4ext_2", "C4ext_3")}


@pytest.fixture(scope="session")
def dmm_catalogs():
    """Complete DMM catalogs for sizes 1..6, computed once per session."""
    return {n: enumerate_algebras(SearchSpec(n)) for n in range(1, 7)}


@pytest.fixture(scope="session")
def slow_counts():
    """Unpruned recounts for sizes 1..4, computed once per session."""
    return {n: slow_count(n) for n in range(1, 5)}


@pytest.fixture(scope="session")
def dmm_upto(dmm_catalogs):
    def upto(k):
        algs = [A for n in range(1, k + 1)
                for A in dmm_catalogs[n].algebras]
        return Catalog(SearchSpec(k), algs, True)
    return upto


_SMALL = [*(make_named(nm) for nm in ("2", "S3", "C4", "D4", "S4", "S5")),
          *(A for n in range(1, 5) for klass in ("dmm", "irl")
            for A in enumerate_algebras(SearchSpec.for_class(klass, n))
            .algebras)]


@st.composite
def corrupted_tables(draw):
    """The table object of a small IRL with one entry of meet, join,
    fusion, neg or e set to any element."""
    d = draw(st.sampled_from(_SMALL)).to_dict()
    n = d["size"]
    k = draw(st.sampled_from(["meet", "join", "fusion", "neg", "e"]))
    v = draw(st.integers(0, n - 1))
    if k == "e":
        d["e"] = v
    elif k == "neg":
        d["neg"][draw(st.integers(0, n - 1))] = v
    else:
        d[k][draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = v
    return d


def symmetric_corruption(d: dict, rnd) -> dict:
    """d after one or two edits that keep meet, join and fusion symmetric:
    an entry set at (a, b) and (b, a) together, two values of neg swapped,
    or e moved.  Such tables pass the commutativity laws, so a check gets
    past them to the later laws.  rnd is a random.Random."""
    n = d["size"]
    for _ in range(rnd.randint(1, 2)):
        k = rnd.choice(["meet", "join", "fusion", "neg", "e"])
        if k == "e":
            d["e"] = rnd.randrange(n)
        elif k == "neg":
            i, j = rnd.randrange(n), rnd.randrange(n)
            d["neg"][i], d["neg"][j] = d["neg"][j], d["neg"][i]
        else:
            a, b, v = rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)
            d[k][a][b] = d[k][b][a] = v
    return d


@st.composite
def symmetric_corrupted_tables(draw):
    """The table object of a small IRL after symmetric_corruption."""
    d = draw(st.sampled_from(_SMALL)).to_dict()
    return symmetric_corruption(d, draw(st.randoms(use_true_random=False)))
