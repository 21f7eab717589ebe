"""Rules that the library source keeps, read off src/qgd/*.py: every qgd
result is deterministic, and one memo serves the whole package."""
import pathlib
import re

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent
                  / "src" / "qgd").glob("*.py"))


def matching(pattern):
    """The names of the source files in which pattern occurs."""
    return [p.name for p in SOURCES if re.search(pattern, p.read_text())]


def test_sources_found():
    assert {"__init__.py", "compiler.py", "equivalence.py"} <= {
        p.name for p in SOURCES}


def test_library_draws_no_random_numbers():
    # Random draws belong to the tests and the benchmark.
    assert matching(r"np\.random|default_rng") == []


def test_library_keeps_one_memo():
    # The Makhlin invariants memo in equivalence is the only one; constant
    # work is hoisted to import time instead of memoized.
    assert matching(r"lru_cache|functools|cached_property") == [
        "equivalence.py"]
