import pytest

from dmm.constructions import make_named
from dmm.enumeration import Catalog, SearchSpec, enumerate_algebras
from test_enumeration_oracles import slow_count


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
