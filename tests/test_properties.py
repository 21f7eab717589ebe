"""Property tests: exact compilation and lossless schedule JSON over the
coupling space, the KAK round trip and Weyl idempotence on locally
dressed gates, and the CLI's exit codes on fuzzed JSON."""
import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qgd import cli
from qgd.compiler import (CNOT, SWAP, compile_cnot, controlled_phase,
                          named_gate)
from qgd.entangler import canonical_entangler
from qgd.equivalence import (kak_decompose, locally_equivalent,
                             makhlin_invariants, weyl_canonicalize)
from qgd.hamiltonian import RotFrameParams
from qgd.pulses import PulseSchedule, simulate_schedule
from qgd.qmat import distance, kron

from conftest import random_su2

EXACT = 1e-9

# Reproducible runs, no per-example timing: tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)

magnitude = st.floats(min_value=-3, max_value=3).map(lambda e: 10.0 ** e)
coupling = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda m: -m))


@PROPERTY
@given(j=coupling, j_zz=coupling, j_prime=coupling,
       prefer=st.sampled_from(["auto", "cnot"]),
       refocus_qubit=st.sampled_from([1, 2]))
def test_every_compiled_schedule_is_exact_and_round_trips(
        j, j_zz, j_prime, prefer, refocus_qubit):
    assume(j or j_zz or j_prime)
    p = RotFrameParams(j, j_zz, j_prime)
    res = compile_cnot(p, prefer=prefer, refocus_qubit=refocus_qubit)
    assert res.verification.exact_distance < EXACT
    if res.branch != "xy_single_shot_swapcnot":
        # The stronger coupling sets the time: the least any CNOT takes.
        r = math.hypot(j, j_prime)
        assert math.isclose(res.schedule.total_entangling_time,
                            math.pi / (4 * max(r, abs(j_zz))), rel_tol=1e-12)
        assert (res.branch in ("zz_refocus", "ising_single_shot")) == (
            abs(j_zz) > r)
    u = simulate_schedule(res.schedule, p)
    assert distance(u, named_gate(res.target_name)) < EXACT
    text = json.dumps(res.schedule.to_json())
    assert PulseSchedule.from_json(json.loads(text)) == res.schedule


def _dressed(seed: int, core: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (kron(random_su2(rng), random_su2(rng)) @ core
            @ kron(random_su2(rng), random_su2(rng)))


small_angle = st.floats(min_value=-4, max_value=-2).map(lambda e: 10.0 ** e)
core_gate = st.one_of(
    st.sampled_from([np.eye(4, dtype=complex), CNOT, SWAP]),
    st.tuples(small_angle, st.sampled_from([-1.0, 1.0])).map(
        lambda ts: controlled_phase(ts[0] * ts[1])))


@PROPERTY
@given(core=core_gate, seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_kak_round_trip_and_weyl_idempotence(core, seed):
    u = _dressed(seed, core)
    f = kak_decompose(u)
    assert distance(f.reconstruct(), u) < EXACT
    inv = makhlin_invariants(u)
    assert inv.distance(makhlin_invariants(core)) < EXACT
    assert inv.distance(makhlin_invariants(canonical_entangler(f.coords))) \
        < EXACT
    w = weyl_canonicalize(f.coords)
    again = weyl_canonicalize(w)
    assert np.max(np.abs(again.as_array() - w.as_array())) < 1e-12
    assert locally_equivalent(canonical_entangler(w), u)


# ------------------------------------------------------------ CLI fuzz --
_EXIT_DOC = cli.__doc__.split("Exit codes:")[1].split("\n\n")[0]
DOCUMENTED = {0} | {int(c) for c in re.findall(r"\b(\d+)\s+[a-zA-Z]",
                                                _EXIT_DOC)}

number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
    st.sampled_from([0.0, -0.0, 1e-320, 1e308, 1.7, 1, 2, 3]))
junk = st.recursive(
    st.none() | st.booleans() | number | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
value = st.one_of(number, junk)

reduced = st.fixed_dictionaries(
    {}, optional={"J": value, "Jzz": value, "Jprime": value, "J'": value})
tensor = st.fixed_dictionaries(
    {f"J{a}{b}": value for a in "xyz" for b in "xyz"},
    optional={"unit": value})
coupling_json = st.one_of(reduced, tensor, junk)

op_json = st.fixed_dictionaries(
    {"op": st.sampled_from(["rotate", "entangle", "phase", "measure"])},
    optional={"axis": st.sampled_from(["x", "y", "z", "w"]) | junk,
              "angle": value, "qubit": value, "duration": value})
op_list = st.lists(op_json, max_size=4)
compile_result = st.fixed_dictionaries(
    {"schedule": op_list | junk, "params": reduced | junk},
    optional={"target": st.sampled_from(["CNOT", "C(1e999)"]) | junk})
schedule_json = st.one_of(op_list, compile_result, junk)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(coupling=coupling_json, schedule=schedule_json,
       command=st.sampled_from(["compile", "simulate", "trajectory"]))
def test_cli_on_fuzzed_json_exits_with_documented_code(
        fuzz_dir, coupling, schedule, command):
    cpl, sched = fuzz_dir / "coupling.json", fuzz_dir / "schedule.json"
    cpl.write_text(json.dumps(coupling))
    sched.write_text(json.dumps(schedule))
    args = {"compile": ["compile", "--input", str(cpl)],
            "simulate": ["simulate", "--input", str(sched),
                         "--coupling", str(cpl)],
            "trajectory": ["trajectory", "--coupling", str(cpl),
                           "--schedule", str(sched), "--samples", "2"],
            }[command]
    result = CliRunner().invoke(cli.main, args)
    assert result.exit_code in DOCUMENTED
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), result.output
