"""Rules that the library source keeps, read off src/qgd/*.py: every qgd
result is deterministic, one memo serves the whole package, the only
eigensolvers are the lab frame's exponential and KAK's, the magic basis is
KAK's alone, every product inside a function is ndarray.dot, each input
fact is decided in one place, and the records the package returns are no
public names."""
import ast
import pathlib
import re

import pytest

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


def test_linear_algebra_only_where_no_closed_form_exists():
    # The lab-frame exponential (qmat._expm_eigh) and KAK's eigenbasis
    # (equivalence) have no closed form; every other exponential, product
    # and determinant of the package is one.
    assert matching(r"linalg") == ["equivalence.py", "qmat.py"]


def test_the_magic_basis_is_equivalences():
    # Only KAK needs the magic basis; trajectories read the toggled
    # coupling in coupling_operator's Pauli basis instead.
    assert matching(r"MAGIC|GEN_DIAGS") == ["equivalence.py"]


def test_products_are_ndarray_dot():
    # On numpy 2.x the matmul ufunc behind @ costs more dispatch than the
    # arithmetic of a 4x4 product; ndarray.dot gives the same bits for
    # less. Module-level constants, built once at import, may keep @.
    found = set()
    for p in SOURCES:
        for fn in ast.walk(ast.parse(p.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                found |= {(p.name, node.lineno) for node in ast.walk(fn)
                          if isinstance(node, (ast.BinOp, ast.AugAssign))
                          and isinstance(node.op, ast.MatMult)}
    assert found == set()


@pytest.mark.parametrize("literal, where", [
    ('"phase overflows', "qmat.py"), ('is not a finite number"', "qmat.py"),
    ("raise NotUnitary(", "qmat.py"), ("raise ZeroCoupling(", "compiler.py")],
    ids=["phase_overflows", "not_finite", "not_unitary", "zero_coupling"])
def test_each_input_fact_is_decided_once(literal, where):
    # qmat._finite is the one reader of a real, qmat._entangler, the one
    # closed form of A, the one phase rule, qmat.require_unitary the one
    # unitarity rule and compiler._interval the one zero-coupling rule:
    # each is raised once.
    assert [(p.name, p.read_text().count(literal)) for p in SOURCES
            if literal in p.read_text()] == [(where, 1)]


RECORDS = {"MakhlinInvariants", "KakFactors", "Trajectory",
           "VerificationReport", "CompileResult"}


def test_returned_records_are_no_public_names():
    # Only the package builds them, so they check nothing: they stay in
    # their modules, out of every __all__ and of qgd's top-level names.
    public = set()
    for p in SOURCES:
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__"
                    for t in node.targets):
                public |= set(ast.literal_eval(node.value))
            elif p.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                public |= {a.asname or a.name for a in node.names}
    assert all(matching(rf"(?m)^class {name}\b") for name in RECORDS)
    assert RECORDS & public == set()
