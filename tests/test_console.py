"""The console script end to end: every command of the README run as a
subprocess, with golden values and bounds, and the README's CLI lines
run as written. qgd is the script that
[project.scripts] installs when it is on PATH, and python -m qgd.cli with
src on PYTHONPATH otherwise."""
import csv
import json
import math
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"
SCRIPT = shutil.which("qgd")

COUPLING = {"J": 1.0, "Jzz": 0.2, "Jprime": 0.1}
TENSOR = {"Jxx": 1.0, "Jxy": 0.1, "Jxz": 0.3, "Jyx": -0.1, "Jyy": 0.8,
          "Jyz": 0.05, "Jzx": -0.4, "Jzy": 0.2, "Jzz": 0.25}


def qgd(*args, cwd) -> str:
    """The stdout of qgd args, run in cwd; it must exit 0."""
    env = dict(os.environ)
    command = [SCRIPT]
    if SCRIPT is None:
        command = [sys.executable, "-m", "qgd.cli"]
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    run = subprocess.run([*command, *args], capture_output=True, text=True,
                         env=env, cwd=cwd, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding coupling.json and tensor.json and their compile
    results, result.json and tensor_result.json."""
    d = tmp_path_factory.mktemp("console")
    for name, data in (("coupling", COUPLING), ("tensor", TENSOR)):
        (d / f"{name}.json").write_text(json.dumps(data))
    for src, out in (("coupling", "result"), ("tensor", "tensor_result")):
        (d / f"{out}.json").write_text(
            qgd("compile", "--input", f"{src}.json", cwd=d))
    return d


@pytest.mark.parametrize("gate, g1, g2", [("CNOT", 0, 1), ("SWAP", -1, -3),
                                          ("I", 1, 3)])
def test_invariants_goldens(tmp_path, gate, g1, g2):
    d = json.loads(qgd("invariants", "--gate", gate, cwd=tmp_path))
    assert abs(complex(*d["G1"]) - g1) <= 1e-12
    assert abs(d["G2"] - g2) <= 1e-12


def haar_json(path):
    """The Haar gate of default_rng(7), as a JSON matrix file."""
    rng = np.random.default_rng(7)
    q, r = np.linalg.qr(rng.normal(size=(4, 4))
                        + 1j * rng.normal(size=(4, 4)))
    q = q * (np.diag(r) / abs(np.diag(r)))
    path.write_text(json.dumps([[[v.real, v.imag] for v in row]
                                for row in q.tolist()]))
    return path.name


@pytest.mark.parametrize("gate", ["I", "CNOT", "SWAP", "haar"])
def test_kak_bounds(tmp_path, gate):
    # Coordinates within 3pi/4 of 0 and the phase in [-pi/2, 3pi/4].
    source = (["--input", haar_json(tmp_path / "haar.json")]
              if gate == "haar" else ["--gate", gate])
    d = json.loads(qgd("kak", *source, cwd=tmp_path))
    assert max(map(abs, d["coords"])) <= 3 * math.pi / 4
    assert -math.pi / 2 <= d["phase"] <= 3 * math.pi / 4


@pytest.mark.parametrize("result, extra", [
    pytest.param("result.json", [], id="compiled"),
    pytest.param("result.json", ["--target", "CZ", "--mode", "local_class"],
                 id="cz_class"),
    pytest.param("tensor_result.json", [], id="tensor"),
])
def test_compile_result_simulates(work, result, extra):
    # --target wins over the result's own target.
    report = json.loads(qgd("simulate", "--input", result, *extra, cwd=work))
    assert report["passed"] is True


def test_trajectory_draws_the_compiled_schedule(work):
    # Two intervals of 4 samples: 9 rows, from the origin to (pi/4, 0, 0).
    schedule = json.loads((work / "result.json").read_text())["schedule"]
    (work / "sched.json").write_text(json.dumps(schedule))
    out = qgd("trajectory", "--coupling", "coupling.json", "--schedule",
              "sched.json", "--samples", "4", cwd=work)
    header, *rows = list(csv.reader(out.splitlines()))
    assert header == ["t", "x", "y", "z"]
    rows = [list(map(float, r)) for r in rows]
    assert len(rows) == 9
    assert rows[0] == [0.0] * 4
    assert max(abs(v - e) for v, e in zip(rows[-1][1:],
                                          (math.pi / 4, 0.0, 0.0))) <= 1e-11


@pytest.mark.parametrize("coupling", [[], ["--coupling", "tensor.json"]],
                         ids=["default", "tensor"])
def test_rwa_scan_prints_one_row_per_ratio(work, coupling):
    out = qgd("rwa-scan", *coupling, "--ratios", "1e-1,1e-2", cwd=work)
    header, *rows = out.splitlines()
    assert header == "ratio,infidelity"
    assert len(rows) == 2
    assert all(re.fullmatch(r"[0-9.e+-]+,[0-9.e+-]+", r) for r in rows)


def readme_cli_lines():
    """The qgd lines of the sh blocks in the README's CLI section, with
    their comments dropped."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [line.split("#", 1)[0].strip()
            for block in re.findall(r"```sh\n(.*?)```", section, re.S)
            for line in block.splitlines() if line.startswith("qgd ")]


def test_readme_cli_lines_run(tmp_path):
    # In order, each "> file" honoured; sched.json is the schedule of
    # result.json, which the README extracts with jq.
    from qgd import cli
    lines = readme_cli_lines()
    assert {shlex.split(line)[1] for line in lines} == set(cli.main.commands)
    (tmp_path / "coupling.json").write_text(json.dumps(COUPLING))
    for line in lines:
        words, out = shlex.split(line), None
        if ">" in words:
            words, out = words[:words.index(">")], words[-1]
        stdout = qgd(*words[1:], cwd=tmp_path)
        if out is not None:
            (tmp_path / out).write_text(stdout)
        if out == "result.json":
            (tmp_path / "sched.json").write_text(
                json.dumps(json.loads(stdout)["schedule"]))
    json.loads((tmp_path / "result.json").read_text())
    assert (tmp_path / "traj.csv").read_text().startswith("t,x,y,z\n")
