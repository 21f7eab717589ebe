import importlib
import json
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import qgd
from qgd import cli
from qgd.cli import main
from qgd.equivalence import kak_decompose
from qgd.errors import QgdError

from conftest import noisy_unitaries

PI = math.pi

COUPLING_XY_JPRIME = {
    "Jxx": 1.0, "Jxy": 0.5, "Jxz": 0.0,
    "Jyx": -0.5, "Jyy": 1.0, "Jyz": 0.0,
    "Jzx": 0.0, "Jzy": 0.0, "Jzz": 0.3,
    "unit": "angular frequency",
}


@pytest.fixture
def runner():
    return CliRunner()


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestInvariantsCmd:
    @pytest.mark.parametrize("gate,g1,g2", [
        ("CNOT", 0.0, 1.0),
        ("SWAP", -1.0, -3.0),
        ("I", 1.0, 3.0),
    ])
    def test_golden_gates(self, runner, gate, g1, g2):
        result = runner.invoke(main, ["invariants", "--gate", gate])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert abs(out["G1"][0] - g1) < 1e-12
        assert abs(out["G1"][1]) < 1e-12
        assert abs(out["G2"] - g2) < 1e-12

    def test_matrix_file_input(self, runner, tmp_path):
        cnot = [[[1, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [1, 0], [0, 0], [0, 0]],
                [[0, 0], [0, 0], [0, 0], [1, 0]],
                [[0, 0], [0, 0], [1, 0], [0, 0]]]
        path = write_json(tmp_path, "cnot.json", cnot)
        result = runner.invoke(main, ["invariants", "--input", path])
        assert result.exit_code == 0
        assert abs(json.loads(result.output)["G2"] - 1.0) < 1e-12

    def test_non_unitary_exit_2(self, runner, tmp_path):
        bad = [[[2, 0]] * 4] * 4
        path = write_json(tmp_path, "bad.json", bad)
        result = runner.invoke(main, ["invariants", "--input", path])
        assert result.exit_code == 2

    def test_parse_failure_exit_1(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["invariants", "--input", str(path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("content", [
        b"[" * 100_000,  # nested deeper than the parser's stack
        b"\xff\xfe[[1]]",  # not UTF-8
    ], ids=["deeply_nested", "not_utf8"])
    def test_unparsable_file_names_its_path(self, runner, tmp_path,
                                            content):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        result = runner.invoke(main, ["invariants", "--input", str(path)])
        assert refused(result, 1)
        assert result.stderr.startswith(f"error: cannot parse {path}: ")

    def test_unknown_gate_exit_7(self, runner):
        result = runner.invoke(main, ["invariants", "--gate", "TOFFOLI"])
        assert result.exit_code == 7

    @pytest.mark.parametrize("matrix", [
        [[["a", 0]] * 4] * 4,                    # a non-numeric entry
        [[[1, 0], [0, 0], [0, 0]]] * 3,          # 3x3
    ])
    def test_malformed_matrix_exit_1(self, runner, tmp_path, matrix):
        path = write_json(tmp_path, "m.json", matrix)
        result = runner.invoke(main, ["invariants", "--input", path])
        assert refused(result, 1)

    def test_real_entries_name_the_pair_format(self, runner, tmp_path):
        path = write_json(tmp_path, "m.json", np.eye(4, dtype=int).tolist())
        result = runner.invoke(main, ["kak", "--input", path])
        assert refused(result, 1)
        assert result.stderr == ("error: bad matrix JSON: entry [0][0] is 1, "
                                 "not an [re, im] pair\n")

    @pytest.mark.parametrize("args", [
        ["--gate", "CNOT", "--input", "m.json"], []])
    def test_exactly_one_source_exit_1(self, runner, args):
        result = runner.invoke(main, ["invariants", *args])
        assert refused(result, 1)


NEGATIVE_ZERO_TENSOR = {**{f"J{a}{b}": 0.0 for a in "xyz" for b in "xyz"},
                        "Jxx": -0.0, "Jyy": -0.0, "Jzz": 1.0}


@pytest.mark.parametrize("command, source", [
    *(pytest.param(c, g, id=f"{g}-{c}") for g in ("I", "CNOT", "CZ", "SWAP")
      for c in ("invariants", "kak")),
    pytest.param("compile", {"J": -0.0, "Jzz": 1.0, "Jprime": -0.0},
                 id="reduced-compile"),
    pytest.param("compile", NEGATIVE_ZERO_TENSOR, id="tensor-compile"),
])
def test_json_carries_no_negative_zero(runner, tmp_path, command, source):
    # A coupling of -0.0 compiles with "J": 0.0 in its params.
    args = (["--gate", source] if isinstance(source, str)
            else ["--input", write_json(tmp_path, "c.json", source)])
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 0
    assert not re.search(r"-0\.0(?![0-9e])", result.output)


class TestKakCmd:
    def test_cnot_class(self, runner):
        result = runner.invoke(main, ["kak", "--gate", "CNOT"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        from qgd.entangler import EntanglerCoords, canonical_entangler
        from qgd.equivalence import locally_equivalent
        a = canonical_entangler(EntanglerCoords(*out["coords"]))
        target = canonical_entangler(EntanglerCoords(PI / 4, 0, 0))
        assert locally_equivalent(a, target)

    def test_deterministic(self, runner):
        outs = [runner.invoke(main, ["kak", "--gate", "SWAP"])
                for _ in range(2)]
        assert outs[0].output == outs[1].output

    def test_noisy_unitary_input(self, runner, tmp_path):
        # Off unitarity by ~1e-11, inside UNITARY_TOL: decomposed, exit 0.
        u = list(noisy_unitaries(np.random.default_rng(2027), 2))[1]
        path = write_json(tmp_path, "u.json",
                          [[[z.real, z.imag] for z in row] for row in u])
        result = runner.invoke(main, ["kak", "--input", path])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == json.loads(json.dumps(
            kak_decompose(u).to_dict()))


class TestCompileSimulateRoundTrip:
    def test_compile_output_feeds_simulate(self, runner, tmp_path):
        cpl = write_json(tmp_path, "cpl.json", COUPLING_XY_JPRIME)
        result = runner.invoke(main, ["compile", "--input", cpl])
        assert result.exit_code == 0
        compiled = json.loads(result.output)
        assert compiled["branch"] == "general_jprime"
        assert compiled["verification"]["passed"]

        out_path = write_json(tmp_path, "compiled.json", compiled)
        sim = runner.invoke(main, ["simulate", "--input", out_path])
        assert sim.exit_code == 0
        report = json.loads(sim.output)
        assert report["passed"]
        assert report["exact_distance"] < 1e-9

    def _compiled(self, runner, tmp_path):
        cpl = write_json(tmp_path, "cpl.json", COUPLING_XY_JPRIME)
        result = runner.invoke(main, ["compile", "--input", cpl])
        return write_json(tmp_path, "r.json", json.loads(result.output))

    def test_explicit_target_wins_over_the_result(self, runner, tmp_path):
        path = self._compiled(runner, tmp_path)
        reports = [json.loads(runner.invoke(
            main, ["simulate", "--input", path, "--target", "CZ",
                   "--mode", mode]).output)
            for mode in ("exact", "local_class")]
        assert [r["target"] for r in reports] == ["CZ", "CZ"]
        # A CNOT is not a CZ, but is locally equivalent to one.
        assert [r["passed"] for r in reports] == [False, True]

    def test_explicit_coupling_wins_over_the_result(self, runner, tmp_path):
        path = self._compiled(runner, tmp_path)
        other = write_json(tmp_path, "c.json",
                           {"J": 1.0, "Jzz": 0.0, "Jprime": 0.0})
        same = write_json(tmp_path, "t.json", COUPLING_XY_JPRIME)
        passed = [json.loads(runner.invoke(
            main, ["simulate", "--input", path, "--coupling", cpl]).output
        )["passed"] for cpl in (other, same)]
        assert passed == [False, True]

    def test_ising_takes_the_zz_echo(self, runner, tmp_path):
        # r = 0 is the ZZ frame: two intervals split by its echo.
        cpl = write_json(tmp_path, "ising.json",
                         {"J": 0.0, "Jzz": 1.0, "Jprime": 0.0})
        result = runner.invoke(main, ["compile", "--input", cpl])
        out = json.loads(result.output)
        assert out["branch"] == "zz_refocus"
        assert len([op for op in out["schedule"]
                    if op["op"] == "entangle"]) == 2

    def test_zero_coupling_exit_3(self, runner, tmp_path):
        cpl = write_json(tmp_path, "zero.json",
                         {"J": 0.0, "Jzz": 0.0, "Jprime": 0.0})
        result = runner.invoke(main, ["compile", "--input", cpl])
        assert result.exit_code == 3

    @pytest.mark.parametrize("coupling", [
        {"J": True, "Jzz": False, "Jprime": 0},
        {f"J{a}{b}": a == b for a in "xyz" for b in "xyz"}],
        ids=["reduced", "tensor"])
    def test_boolean_coupling_exit_1(self, runner, tmp_path, coupling):
        # JSON true is no number: it once compiled with J = 1.
        cpl = write_json(tmp_path, "bool.json", coupling)
        result = runner.invoke(main, ["compile", "--input", cpl])
        assert refused(result, 1)
        assert result.stdout == ""
        assert "True is not a finite number" in result.stderr

    def test_bare_schedule_simulate(self, runner, tmp_path):
        sched = write_json(tmp_path, "s.json",
                           [{"op": "entangle", "duration": PI / 4}])
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 1.0, "Jprime": 0.0})
        result = runner.invoke(main, ["simulate", "--input", sched,
                                      "--coupling", cpl,
                                      "--target", "SWAP",
                                      "--mode", "local_class"])
        assert result.exit_code == 0
        assert json.loads(result.output)["passed"]

    def test_bare_schedule_needs_coupling_exit_1(self, runner, tmp_path):
        sched = write_json(tmp_path, "s.json",
                           [{"op": "entangle", "duration": PI / 4}])
        result = runner.invoke(main, ["simulate", "--input", sched])
        assert refused(result, 1)

    def test_tiny_jprime_beside_huge_j(self, runner, tmp_path):
        # arg(J + iJ') underflows to 0 here; it must not raise.
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1e300, "Jzz": 0.0, "Jprime": 1e-300})
        result = runner.invoke(main, ["compile", "--input", cpl])
        assert result.exit_code == 0
        assert json.loads(result.output)["verification"]["passed"]


class TestTrajectoryCmd:
    def test_straight_line(self, runner, tmp_path):
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 1.0, "Jprime": 0.0})
        sched = write_json(tmp_path, "s.json",
                           [{"op": "entangle", "duration": 0.5}])
        result = runner.invoke(main, ["trajectory", "--coupling", cpl,
                                      "--schedule", sched, "--samples", "4"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 6
        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[1] - last[2]) < 1e-12  # x = y plane

    def test_kinked_path(self, runner, tmp_path):
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 0.4, "Jprime": 0.0})
        dt = PI / 8
        sched = write_json(tmp_path, "s.json", [
            {"op": "entangle", "duration": dt},
            {"op": "rotate", "axis": "x", "angle": PI, "qubit": 1},
            {"op": "entangle", "duration": dt},
        ])
        result = runner.invoke(main, ["trajectory", "--coupling", cpl,
                                      "--schedule", sched, "--samples", "2"])
        assert result.exit_code == 0
        last = [float(v) for v in
                result.output.strip().split("\n")[-1].split(",")]
        assert abs(last[1] - PI / 4) < 1e-9
        assert abs(last[2]) < 1e-9 and abs(last[3]) < 1e-9

    @pytest.mark.parametrize("prefer", ["auto", "cnot"])
    @pytest.mark.parametrize("refocus_qubit", [1, 2])
    @pytest.mark.parametrize("coupling", [
        {"J": 1.0, "Jzz": 0.0, "Jprime": 0.0},    # xy_single_shot_swapcnot
        {"J": -1.0, "Jzz": 0.4, "Jprime": 0.0},   # two_shot_refocus
        {"J": 0.8, "Jzz": -0.3, "Jprime": -1.1},  # general_jprime
        {"J": 0.2, "Jzz": -1.0, "Jprime": 0.3},   # zz_refocus
        {"J": 0.0, "Jzz": 0.7, "Jprime": 0.0},    # zz_refocus at r = 0
    ])
    def test_every_compiled_schedule_is_drawn(self, runner, tmp_path,
                                              coupling, prefer,
                                              refocus_qubit):
        from qgd.compiler import compile_cnot, named_gate
        from qgd.entangler import EntanglerCoords, canonical_entangler
        from qgd.equivalence import locally_equivalent
        from qgd.hamiltonian import RotFrameParams
        res = compile_cnot(RotFrameParams.from_dict(coupling), prefer=prefer,
                           refocus_qubit=refocus_qubit)
        cpl = write_json(tmp_path, "c.json", coupling)
        sched = write_json(tmp_path, "s.json", res.schedule.to_json())
        result = runner.invoke(main, ["trajectory", "--coupling", cpl,
                                      "--schedule", sched, "--samples", "2"])
        assert result.exit_code == 0, result.output
        last = [float(v) for v in result.stdout.strip().split("\n")[-1]
                .split(",")]
        end = canonical_entangler(EntanglerCoords(*last[1:4]))
        assert locally_equivalent(end, named_gate(res.target_name))

    def test_empty_schedule_single_row(self, runner, tmp_path):
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 0.0, "Jprime": 0.0})
        sched = write_json(tmp_path, "s.json", [])
        result = runner.invoke(main, ["trajectory", "--coupling", cpl,
                                      "--schedule", sched])
        assert result.output.strip().split("\n")[1:] == ["0,0,0,0"]

    def test_overflowing_area_exit_1(self, runner, tmp_path):
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1e300, "Jzz": 0.0, "Jprime": 0.0})
        sched = write_json(tmp_path, "s.json",
                           [{"op": "entangle", "duration": 1e300}])
        result = runner.invoke(main, ["trajectory", "--coupling", cpl,
                                      "--schedule", sched, "--samples", "1"])
        # A numpy warning would fail the test as an error.
        assert refused(result, 1)
        assert result.stdout == ""
        assert result.stderr.startswith("error: entangling area")


class TestRwaScanCmd:
    def test_monotone_csv(self, runner):
        result = runner.invoke(main, ["rwa-scan", "--ratios", "1e-1,1e-2"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "ratio,infidelity"
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert vals[1] < vals[0]

    def test_tensor_file(self, runner, tmp_path):
        # The default tensor, given as a file, reproduces the default scan.
        default = [[1.0, 0.4, 0.3], [0.2, 0.8, -0.5], [0.6, -0.3, 0.9]]
        path = write_json(tmp_path, "t.json", {
            f"J{a}{b}": default[i][k]
            for i, a in enumerate("xyz") for k, b in enumerate("xyz")})
        args = ["rwa-scan", "--ratios", "1e-1,1e-2"]
        result = runner.invoke(main, [*args, "--coupling", path])
        assert result.exit_code == 0
        assert result.output == runner.invoke(main, args).output

    def test_tiny_tensor_scales_like_unit_tensor(self, runner, tmp_path):
        # Normalised before scaling: g / 1e-300 would overflow.
        args = ["rwa-scan", "--ratios", "1e10,1e-2"]
        outs = []
        for jxx in (1e-300, 1.0):
            path = write_json(tmp_path, "t.json", {
                f"J{a}{b}": jxx if a + b == "xx" else 0.0
                for a in "xyz" for b in "xyz"})
            result = runner.invoke(main, [*args, "--coupling", path])
            assert result.exit_code == 0, result.output
            outs.append(result.output)
        assert outs[0] == outs[1]

    def test_zero_tensor_exit_1(self, runner, tmp_path):
        path = write_json(tmp_path, "t.json",
                          {f"J{a}{b}": 0.0 for a in "xyz" for b in "xyz"})
        result = runner.invoke(main, ["rwa-scan", "--coupling", path])
        assert refused(result, 1)

    @pytest.mark.parametrize("args", [
        ["--ratios", "1e-1,0"], ["--ratios", "1e-1,-1"],
        ["--ratios", "1e-1,inf"], ["--ratios", "1e-1,nan"],
        ["--ratios", "1e-1,1e-310"],  # T = gT/g is not finite
        ["--ratios", "1e-1,1e308"],   # eps + sum |J| is not finite
        ["--ratios", "1e-11"],        # eps T beyond 2^32: phase roundoff
        ["--ratios", "1e-1,1e-11"],   # the same, after a good point
        ["--ratios", "1e-1,1e-300"],
    ])
    def test_bad_point_prints_nothing(self, runner, args):
        # Every row is computed before the header is printed; a numpy
        # warning would fail the test as an error.
        result = runner.invoke(main, ["rwa-scan", *args])
        assert refused(result, 1)
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize("gt", ["1", "-1", "nan"])
    def test_bad_gt_names_gt(self, runner, gt):
        # The horizon g T is fixed at pi/8: any --gt is a usage error.
        result = runner.invoke(main, ["rwa-scan", "--gt", gt])
        assert refused(result, 1)
        assert result.stdout == ""
        assert "No such option" in result.stderr and "--gt" in result.stderr

    def test_overflow_names_the_coupling(self, runner):
        result = runner.invoke(main, ["rwa-scan", "--ratios", "1e308"])
        assert "coupling tensor too large" in result.stderr


def refused(result, code):
    """Exit code as documented, through sys.exit rather than a traceback."""
    return (result.exit_code == code
            and isinstance(result.exception, SystemExit))


class TestErrorBoundary:
    def test_zero_ratio_exit_1(self, runner):
        result = runner.invoke(main, ["rwa-scan", "--ratios", "1e-1,0"])
        assert refused(result, 1)

    def test_zero_tol_exit_1(self, runner):
        result = runner.invoke(main, ["--tol", "0", "kak", "--gate", "CNOT"])
        assert refused(result, 1)

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_non_finite_tol_exit_1(self, runner, tmp_path, tol):
        # --tol inf would pass any schedule, however far from CNOT.
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 1e308, "Jprime": 0.0})
        result = runner.invoke(main, ["--tol", tol, "compile", "--input", cpl])
        assert refused(result, 1)
        assert result.stdout == ""

    def test_tol_reads_no_environment_variable(self, runner, tmp_path):
        # --tol is the only setter: QGD_TOL=nan once refused every run.
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 0.2, "Jprime": 0.0})
        result = runner.invoke(main, ["compile", "--input", cpl],
                               env={"QGD_TOL": "nan"})
        assert result.exit_code == 0, result.output

    def test_out_of_memory_exit_1(self, runner, tmp_path):
        # 800 PB of sample times exceeds even a 2^57-byte address space,
        # so the allocation is refused at once and nothing is allocated.
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 0.0, "Jprime": 0.0})
        sched = write_json(tmp_path, "s.json",
                           [{"op": "entangle", "duration": 0.5}])
        result = runner.invoke(main, ["trajectory", "--coupling", cpl,
                                      "--schedule", sched,
                                      "--samples", str(10 ** 17)])
        assert refused(result, 1)
        assert result.stdout == ""
        assert result.stderr.startswith("error: Unable to allocate")

    def test_simulate_phase_overflow_exit_1(self, runner, tmp_path):
        sched = write_json(tmp_path, "s.json",
                           [{"op": "entangle", "duration": 1e308}])
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1e300, "Jzz": 0.0, "Jprime": 0.0})
        result = runner.invoke(main, ["simulate", "--input", sched,
                                      "--coupling", cpl])
        assert refused(result, 1)
        assert result.stdout == ""
        assert "phase overflows" in result.stderr

    @pytest.mark.parametrize("command,code,message", [
        ("compile", 3, "coupling too weak"),
        ("simulate", 1, "total entangling time inf"),
        ("trajectory", 1, "total entangling time inf"),
    ], ids=["compile", "simulate", "trajectory"])
    def test_infinite_entangling_time_refused(self, runner, tmp_path,
                                              command, code, message):
        # Each interval is finite, their sum is not: compile and simulate
        # once printed "total_entangling_time": Infinity, which is not
        # JSON, and trajectory said "entangling area nan".
        weak = write_json(tmp_path, "weak.json",
                          {"J": 4e-309, "Jzz": 0.0, "Jprime": 0.0})
        zero = write_json(tmp_path, "zero.json",
                          {"J": 0.0, "Jzz": 0.0, "Jprime": 0.0})
        sched = write_json(tmp_path, "s.json",
                           [{"op": "entangle", "duration": 1e308}] * 2)
        args = {"compile": ["--prefer", "cnot", "--input", weak],
                "simulate": ["--input", sched, "--coupling", zero,
                             "--target", "I"],
                "trajectory": ["--schedule", sched, "--coupling", zero],
                }[command]
        result = runner.invoke(main, [command, *args])
        assert refused(result, code)
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {message}")

    @pytest.mark.parametrize("gate", ["C(1e999)", "Ctheta(-1e999)"])
    def test_non_finite_phase_gate_exit_7(self, runner, gate):
        result = runner.invoke(main, ["invariants", "--gate", gate])
        assert refused(result, 7)
        assert result.stdout == ""

    def test_schedule_object_exit_1(self, runner, tmp_path):
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 0.0, "Jprime": 0.0})
        sched = write_json(tmp_path, "s.json",
                           {"op": "entangle", "duration": 0.5})
        result = runner.invoke(main, ["trajectory", "--coupling", cpl,
                                      "--schedule", sched])
        assert refused(result, 1)

    def test_verification_failed_exit_8(self, runner, tmp_path):
        cpl = write_json(tmp_path, "c.json", COUPLING_XY_JPRIME)
        result = runner.invoke(main, ["--tol", "1e-30", "compile",
                                      "--input", cpl])
        assert refused(result, 8)
        documented = cli.__doc__.split("Exit codes:")[1].split("\n\n")[0]
        for etype in QgdError.__subclasses__():
            assert f"{etype.exit_code} " in documented

    @pytest.mark.parametrize("coupling,code", [
        ({"J": float("nan"), "Jzz": 1.0, "Jprime": 0.0}, 1),
        ({"J": 1e-320, "Jzz": 0.0, "Jprime": 0.0}, 3),
        ({"J": 0.0, "Jzz": 1e-320, "Jprime": 0.0}, 3),
        ([1.0, 2.0], 1),
        # A string is not a number, even one that spells a number.
        ({"J": "0.5", "Jzz": 1.0, "Jprime": 0.0}, 1),
        ({"J": 1.0, "Jzz": 0.0, "J'": 0.5}, 1),
        ({"J": None, "Jzz": 1.0, "Jprime": 0.0}, 1),
        # Reduced from a tensor, J_zz arrives as a numpy scalar.
        ({**{f"J{a}{b}": 0.0 for a in "xyz" for b in "xyz"},
          "Jzz": 1e-320}, 3),
    ])
    def test_in_process_call_exits_with_code(self, tmp_path, capsys,
                                             coupling, code):
        # The boundary sits inside the group, so it also holds when the
        # group is called without click's standalone handling.
        path = write_json(tmp_path, "c.json", coupling)
        with pytest.raises(SystemExit) as info:
            main(["compile", "--input", path], standalone_mode=False)
        assert info.value.code == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("coupling", [
        # k rate overflows a float; the interval pi / (k rate) does not.
        {"J": 5e307, "Jzz": 0.0, "Jprime": 0.0},
        {"J": 0.0, "Jzz": 1.7e308, "Jprime": 0.0},
        # The weak XY part is refocused beside the strong J_zz.
        {"J": 1.0, "Jzz": 1e308, "Jprime": 0.0},
        {"J": 0.0, "Jzz": 1e300, "Jprime": 1e-300},
        {"J": 1e-9, "Jzz": 1.0, "Jprime": 0.0},
        {"J": 1e-320, "Jzz": 1.0, "Jprime": 0.0},
    ])
    @pytest.mark.parametrize("prefer", ["auto", "cnot"])
    def test_extreme_couplings_compile(self, tmp_path, capsys, coupling,
                                       prefer):
        path = write_json(tmp_path, "c.json", coupling)
        main(["compile", "--input", path, "--prefer", prefer],
             standalone_mode=False)
        out = json.loads(capsys.readouterr().out)
        assert out["verification"]["passed"]
        assert out["verification"]["exact_distance"] < 1e-12

    def test_overflowing_coupling_names_j_and_jprime(self, runner, tmp_path):
        tensor = {f"J{a}{b}": 1e308 for a in "xyz" for b in "xyz"}
        for data in ({"J": 1e308, "Jzz": 0.0, "Jprime": 0.0}, tensor,
                     {"J": 5e307, "Jzz": 1e308, "Jprime": 5e307}):
            cpl = write_json(tmp_path, "c.json", data)
            result = runner.invoke(main, ["compile", "--input", cpl])
            assert refused(result, 1)
            assert "J and J'" in result.output


# Each click usage error, with the arguments that trigger it.
USAGE_ERRORS = {
    "missing_input": ["compile"],
    "removed_prefer_value": ["compile", "--input", "c.json",
                             "--prefer", "swap_cnot"],
    "bad_tol": ["--tol", "abc", "compile", "--input", "c.json"],
    "unknown_subcommand": ["frobnicate"],
}


class TestUsageErrors:
    """click's usage errors exit 1 (invalid input) with click's usage
    message, never 2, which means a non-unitary input."""

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_exit_1(self, runner, case):
        result = runner.invoke(main, USAGE_ERRORS[case])
        assert refused(result, 1)
        assert "Usage:" in result.output and "Error:" in result.output

    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_exit_1_in_process(self, capsys, case):
        with pytest.raises(SystemExit) as info:
            main(USAGE_ERRORS[case], standalone_mode=False)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert "Usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [["--help"], ["compile", "--help"]])
    def test_help_exits_0(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert "Usage:" in result.output


class TestScheduleBoundary:
    """Malformed schedules and compile results exit with a documented
    code and no traceback."""

    @pytest.mark.parametrize("target", [5, ["CNOT"], None])
    def test_compile_result_target_not_a_string(self, runner, tmp_path,
                                                target):
        cpl = write_json(tmp_path, "c.json", COUPLING_XY_JPRIME)
        compiled = json.loads(
            runner.invoke(main, ["compile", "--input", cpl]).output)
        compiled["target"] = target
        path = write_json(tmp_path, "r.json", compiled)
        result = runner.invoke(main, ["simulate", "--input", path])
        assert refused(result, 7)

    @pytest.mark.parametrize("op", [
        {"op": "rotate", "axis": "x", "angle": 1.0, "qubit": 1.7},
        {"op": "rotate", "axis": "x", "angle": 1.0, "qubit": True},
        {"op": "rotate", "axis": "x", "angle": float("nan"), "qubit": 1},
        {"op": "rotate", "axis": "x", "angle": float("inf"), "qubit": 2},
        {"op": "entangle", "duration": float("nan")},
        {"op": "entangle", "duration": float("inf")},
        {"op": "phase", "angle": float("-inf")},
    ])
    def test_bad_op_value_exit_1(self, runner, tmp_path, op):
        sched = write_json(tmp_path, "s.json", [op])
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 0.0, "Jprime": 0.0})
        result = runner.invoke(main, ["simulate", "--input", sched,
                                      "--coupling", cpl])
        assert refused(result, 1)

    @pytest.mark.parametrize("op", [
        {"op": ["rotate"]}, {"op": None}, {"axis": "x"}])
    def test_op_name_not_in_table_exit_5(self, runner, tmp_path, op):
        sched = write_json(tmp_path, "s.json", [op])
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 0.0, "Jprime": 0.0})
        result = runner.invoke(main, ["simulate", "--input", sched,
                                      "--coupling", cpl])
        assert refused(result, 5)

    def test_trajectory_interval_below_time_resolution_exit_1(
            self, runner, tmp_path):
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 0.0, "Jprime": 0.0})
        sched = write_json(tmp_path, "s.json", [
            {"op": "entangle", "duration": 1.0},
            {"op": "entangle", "duration": 1e-20}])
        result = runner.invoke(main, ["trajectory", "--coupling", cpl,
                                      "--schedule", sched, "--samples", "2"])
        assert refused(result, 1)
        assert result.stderr == (
            "error: schedule op 1, Entangle(duration=1e-20): duration 1e-20 "
            "over 2 samples is below the float resolution of the time 1.0 "
            "and does not advance it\n")

    @pytest.mark.filterwarnings("error")
    def test_trajectory_overflowing_samples_exit_1(self, runner, tmp_path):
        # Before, inf and nan rows and exit 0: the area 1e308 is finite,
        # but 1e308 * 2 samples is not.
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 0.0, "Jprime": 0.0})
        sched = write_json(tmp_path, "s.json",
                           [{"op": "entangle", "duration": 1e308}])
        result = runner.invoke(main, ["trajectory", "--coupling", cpl,
                                      "--schedule", sched, "--samples", "2"])
        assert refused(result, 1)
        assert result.stderr == (
            "error: schedule op 0, Entangle(duration=1e+308): its 2 samples "
            "are not finite: couplings or durations are too large\n")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_trajectory_needs_a_sample(self, runner, tmp_path, samples):
        cpl = write_json(tmp_path, "c.json",
                         {"J": 1.0, "Jzz": 0.0, "Jprime": 0.0})
        sched = write_json(tmp_path, "s.json",
                           [{"op": "entangle", "duration": 0.5}])
        result = runner.invoke(main, ["trajectory", "--coupling", cpl,
                                      "--schedule", sched,
                                      "--samples", samples])
        assert refused(result, 1)


class TestReadmeAgreesWithCli:
    """The README's CLI block and exit-code table describe the CLI."""

    README = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text()

    def test_exit_code_table(self):
        table = {int(c) for c in re.findall(r"^\| (\d+) \|", self.README,
                                            re.MULTILINE)}
        paragraph = cli.__doc__.split("Exit codes:")[1].split("\n\n")[0]
        docstring = {int(c) for c in re.findall(r"\b(\d+)\s+[a-zA-Z]",
                                                paragraph)}
        errors, codes = [QgdError], set()
        while errors:
            etype = errors.pop()
            codes.add(etype.exit_code)
            errors += etype.__subclasses__()
        assert table == docstring == {1} | codes

    def test_layout_names_every_module(self):
        block = self.README.split("## Layout", 1)[1].split("```", 2)[1]
        listed = set(re.findall(r"^  (\w+)\.py\b", block, re.MULTILINE))
        src = pathlib.Path(cli.__file__).parent
        modules = {f.stem for f in src.glob("*.py")} - {"__init__"}
        assert listed == modules

    def test_quick_start_runs_and_keeps_its_claims(self):
        # Warnings are errors; the block's comments claim G1 = 0, G2 = 1,
        # "general_jprime" and True.
        block = self.README.split("## Quick start", 1)[1]
        block = block.split("```python", 1)[1].split("```", 1)[0]
        src = pathlib.Path(cli.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             block + "print(complex(inv.g1), inv.g2)\n"],
            capture_output=True, text=True, env=env, check=True)
        branch, _, passed, invariants = run.stdout.splitlines()
        g1, g2 = invariants.split()
        assert (branch, passed) == ("general_jprime", "True")
        assert abs(complex(g1)) < 1e-12 and abs(float(g2) - 1) < 1e-12

    def test_subcommands(self):
        block = self.README.split("## CLI", 1)[1].split("```sh", 1)[1]
        block = block.split("```", 1)[0]
        listed = set(re.findall(r"^qgd ([\w-]+)", block, re.MULTILINE))
        assert listed == set(cli.main.commands)


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(qgd.__path__)))
def test_every_exported_name_resolves(name):
    # A stale __all__ entry breaks import * and hides the name from
    # anything that walks __all__ with getattr(module, name, None).
    module = importlib.import_module(f"qgd.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from qgd.{name} import *", namespace)
    assert set(exported) <= set(namespace)
