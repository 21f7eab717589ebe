"""The four workloads: seeded inputs, the timed call into qgd, and the
oracle check of each result.

Each workload has make_inputs(seed) (set-up, untimed by the op clock),
run(inp) (the only timed region: the call into qgd) and check(inp, result),
which returns the oracle's error and raises OracleFailure when the result
is wrong. The oracles live in oracles.py and never call the qgd function
whose result they judge.
"""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import numpy as np

import oracles as O

WORKLOADS = ("compile_sweep", "gate_analysis", "rwa_scan", "cli_pipeline")
RATIOS = (1e-1, 1e-2, 1e-3)
GT = math.pi / 8
# The A(x, x, 0) point where the first weight qgd's KAK eigensolver tries,
# (1/pi, pi), makes two eigenvalues of Re(m)/pi + pi Im(m) coincide:
# tan(2x) = pi^2. There the first attempt fails and the retry runs.
X_RETRY = 0.5 * math.atan(math.pi ** 2)
# qgd's weyl_canonicalize snaps a coordinate near -pi/4 to +pi/4 with
# np.isclose's default rtol of 1e-5, so a class whose canonical x lies
# within ~7.9e-6 of pi/4 can come back moved onto the face, out of its class
# (about 6 Haar gates in 10^5 lie within 1e-5 of it). Haar draws in that
# band are redrawn, so no timed op hits the defect, and
# GateAnalysis.probes() reports it in every run.
WEYL_SNAP_BAND = 1e-5


class OracleFailure(Exception):
    pass


def _require(cond: bool, what: str):
    if not cond:
        raise OracleFailure(what)


def _magnitude(rng) -> float:
    """Signed coupling, log-uniform in [0.1, 10] (angular-frequency units)."""
    return float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 1))


def _tensor_for(rng, j, j_zz, j_prime) -> np.ndarray:
    """A full 3x3 tensor whose rotating-wave reduction is (J, J_zz, J');
    the symmetric-traceless and zx/zy/xz/yz parts are seeded noise that the
    reduction discards."""
    a, b = rng.normal(size=2) * 0.3
    t = rng.normal(size=(3, 3)) * 0.3
    t[0, 0], t[1, 1] = j + a, j - a
    t[0, 1], t[1, 0] = j_prime + b, -j_prime + b
    t[2, 2] = j_zz
    return t


def _ops_from_schedule(schedule) -> list:
    """Neutral ops from qgd's schedule objects, read by attribute."""
    out = []
    for op in schedule.ops:
        kind = type(op).__name__
        if kind == "Rotate":
            out.append(("rotate", op.axis, float(op.angle), int(op.qubit)))
        elif kind == "Entangle":
            out.append(("entangle", float(op.duration)))
        elif kind == "GlobalPhase":
            out.append(("phase", float(op.angle)))
        else:
            raise OracleFailure(f"unknown schedule op {kind}")
    return out


def _expected_target(params, prefer) -> str:
    j, j_zz, j_prime = params
    xy_only = j_prime == 0 and j_zz == 0 and j != 0
    return "SWAP_CNOT" if prefer == "auto" and xy_only else "CNOT"


def check_compiled(params, prefer, ops, target_name, reported) -> float:
    """The schedule, simulated under the oracle's own operator-form
    Hamiltonian for the input's (J, J_zz, J'), must be the expected target
    exactly. reported is the (J, J_zz, J') the result carries."""
    want = _expected_target(params, prefer)
    _require(target_name == want, f"target {target_name}, expected {want}")
    _require(all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)
                 for a, b in zip(params, reported)),
             f"params {reported} differ from the reduction {params}")
    u = O.schedule_unitary(ops, O.coupling_operator(*params))
    err = O.frob(u, O.TARGETS[want])
    _require(err < O.EXACT_TOL, f"schedule misses {want} by {err:.3e}")
    return err


# ---------------------------------------------------------------- compile --
class CompileSweep:
    """One compile_cnot per op over a calibration sweep of four regimes."""

    name = "compile_sweep"
    regimes = ("ising", "zz_refocus", "xy", "jprime")

    def __init__(self, qgd, workdir=None, small=False):
        self.q = qgd
        self.pool = 16 if small else 1000

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 0])
        out = []
        for k in range(self.pool):
            regime = self.regimes[k % 4]
            m = [_magnitude(rng) for _ in range(3)]
            j, j_zz, j_prime = {"ising": (0.0, m[1], 0.0),
                                "zz_refocus": (m[0], m[1], 0.0),
                                "xy": (m[0], 0.0, 0.0),
                                "jprime": (m[0], m[1], m[2])}[regime]
            as_tensor = bool(k % 8 >= 4)
            if as_tensor:
                t = _tensor_for(rng, j, j_zz, j_prime)
                params = O.reduce_tensor(t)
                payload = t
            else:
                params = payload = (j, j_zz, j_prime)
            out.append({"tensor": as_tensor, "payload": payload,
                        "params": tuple(map(float, params)),
                        "prefer": str(rng.choice(["auto", "cnot"])),
                        "refocus": int(rng.integers(1, 3))})
        return out

    def run(self, inp):
        q = self.q
        if inp["tensor"]:
            p = q.reduce_coupling(q.CouplingTensor(inp["payload"]))
        else:
            p = q.RotFrameParams(*inp["payload"])
        return q.compile_cnot(p, prefer=inp["prefer"],
                              refocus_qubit=inp["refocus"])

    def check(self, inp, res) -> float:
        _require(bool(res.verification.passed), "verification not passed")
        reported = (res.params.j, res.params.j_zz, res.params.j_prime)
        return check_compiled(inp["params"], inp["prefer"],
                              _ops_from_schedule(res.schedule),
                              res.target_name, reported)


# ----------------------------------------------------------- gate analysis --
def _dressed(rng, core: np.ndarray) -> np.ndarray:
    return (np.kron(O.random_su2(rng), O.random_su2(rng)) @ core
            @ np.kron(O.random_su2(rng), O.random_su2(rng)))


DRESSED_KINDS = ("I", "CNOT", "CZ", "SWAP", "Ctheta", "Ctheta",
                 "Axx0", "Axx0", "Axxz", "Axxz")


def _core_gate(rng, kind: str) -> np.ndarray:
    if kind == "I":
        return np.eye(4, dtype=complex)
    if kind in ("CNOT", "CZ", "SWAP"):
        return {"CNOT": O.CNOT, "CZ": O.CZ, "SWAP": O.SWAP}[kind]
    if kind == "Ctheta":
        theta = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-4, -2))
        return np.diag([1, 1, 1, np.exp(1j * theta)])
    if kind == "Axx0":
        x = X_RETRY + rng.uniform(-1e-9, 1e-9)
        return O.entangler(x, x, 0.0)
    x = rng.uniform(0.05, 0.75)
    return O.entangler(x, x, rng.uniform(-0.7, 0.7))


class GateAnalysis:
    """One 4x4 unitary per op through invariants, KAK, Weyl and the
    local-equivalence test. Of every 50 gates, 40 are Haar-random and 10
    are Haar-local dressings of DRESSED_KINDS. probes() lists gates that
    qgd mishandles at the time of writing; every run reports them apart
    from the timed mix."""

    name = "gate_analysis"

    def __init__(self, qgd, workdir=None, small=False):
        self.q = qgd
        self.pool = 50 if small else 1000

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        kinds = []
        for _ in range(self.pool // 50):
            block = ["haar"] * 40 + list(DRESSED_KINDS)
            rng.shuffle(block)
            kinds += block
        inputs = [{"kind": k,
                   "u": (O.haar_unitary(rng) if k == "haar"
                         else _dressed(rng, _core_gate(rng, k)))}
                  for k in kinds]
        # Redraw the rare Haar gates inside WEYL_SNAP_BAND from a stream of
        # their own, so the other inputs stay as drawn.
        haar = [inp for inp in inputs if inp["kind"] == "haar"]
        gaps = O.weyl_face_gap(np.array([inp["u"] for inp in haar]))
        redraw = np.random.default_rng([seed, 1, 1])
        for inp, gap in zip(haar, gaps):
            while gap < WEYL_SNAP_BAND:
                inp["u"] = O.haar_unitary(redraw)
                gap = O.weyl_face_gap(inp["u"])
        return inputs

    def probes(self, seed: int) -> list:
        """A(pi/4 + d, a, c) with d in [1e-6, 7e-6]: its class sits d from
        the face x = pi/4, inside WEYL_SNAP_BAND, so the Weyl point must
        keep x = pi/4 - d."""
        rng = np.random.default_rng([seed, 5])
        a, c = rng.uniform(0.05, 0.7), rng.uniform(-0.7, 0.7)
        d = rng.uniform(1e-6, 7e-6)
        return [{"kind": "weyl_snap", "label": "weyl_canonicalize near x=pi/4",
                 "u": O.entangler(math.pi / 4 + d, a, c)}]

    def run(self, inp):
        q = self.q
        u = inp["u"]
        inv = q.makhlin_invariants(u)
        kak = q.kak_decompose(u)
        weyl = q.weyl_canonicalize(kak.coords)
        equiv = q.locally_equivalent(u, q.canonical_entangler(kak.coords))
        return inv, kak, weyl, equiv

    def check(self, inp, res) -> float:
        inv, kak, weyl, equiv = res
        return check_kak(self.q, inp["u"], (inv.g1, inv.g2), kak.phase,
                         kak.u_post, kak.coords.as_array(), kak.u_pre,
                         weyl=weyl, equiv=equiv)


def check_kak(q, u, inv, phase, post, coords, pre, weyl=None,
              equiv=None) -> float:
    """Rebuild e^{i phase} K1 A(coords) K2 with the oracle's entangler and
    check it is u, that each local factor has unit determinant, that the
    invariants of u equal those of A(coords) and the reported ones, and
    (when given) that the Weyl point is idempotent, in the chamber and in
    the same class."""
    ref = O.invariants(u)
    a = O.entangler(*coords)
    rebuilt = np.exp(1j * phase) * np.kron(*post) @ a @ np.kron(*pre)
    errs = [O.frob(rebuilt, u)]
    _require(errs[0] < O.EXACT_TOL, f"KAK rebuild off by {errs[0]:.3e}")
    for f in (*post, *pre):
        errs.append(abs(np.linalg.det(f) - 1))
        _require(errs[-1] < O.EXACT_TOL, "local factor not in SU(2)")
    errs.append(O.invariant_distance(O.invariants(a), ref))
    _require(errs[-1] < O.EXACT_TOL, "A(coords) not in the class of u")
    errs.append(O.invariant_distance(inv, ref))
    _require(errs[-1] < O.EXACT_TOL, "reported invariants are wrong")
    if weyl is not None:
        w = weyl.as_array()
        again = q.weyl_canonicalize(weyl).as_array()
        errs.append(float(np.max(np.abs(again - w))))
        _require(errs[-1] < 1e-12, "weyl_canonicalize is not idempotent")
        _require(O.in_weyl_chamber(*w), f"{w} outside the Weyl chamber")
        errs.append(O.invariant_distance(O.invariants(O.entangler(*w)), ref))
        _require(errs[-1] < O.EXACT_TOL, "Weyl point left the class")
    if equiv is not None:
        _require(equiv is True, "locally_equivalent(u, A(coords)) is False")
    return max(errs)


# ---------------------------------------------------------------- RWA scan --
class RwaScan:
    """One op is one generic tensor checked at every ratio in RATIOS."""

    name = "rwa_scan"

    def __init__(self, qgd, workdir=None, small=False):
        self.q = qgd
        # One tensor: its ~2 s op then gets ~9 passes a run, and the cost
        # barely depends on the tensor (the segment count follows eps).
        self.pool = 1
        self.ratios = RATIOS[:1] if small else RATIOS

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 2])
        out = []
        for _ in range(self.pool):
            base = rng.uniform(0.2, 1.0, (3, 3)) * rng.choice([-1, 1], (3, 3))
            base = base / np.max(np.abs(base))
            out.append([(r, base * r, GT / r) for r in self.ratios])
        return out

    def run(self, inp):
        q = self.q
        return [q.rwa_infidelity(q.CouplingTensor(t), 1.0, t_final)
                for _, t, t_final in inp]

    def check(self, inp, res) -> float:
        err = 0.0
        for (ratio, t, t_final), inf in zip(inp, res, strict=True):
            ref = rwa_reference(t, 1.0, t_final)
            d = abs(inf - ref)
            _require(d < O.RWA_TOL,
                     f"infidelity {inf} vs closed form {ref} at {ratio}")
            err = max(err, d)
        return err


def rwa_reference(t: np.ndarray, eps: float, t_final: float) -> float:
    """Closed form: undriven, so U_lab = exp(-i H_lab T) exactly."""
    drift = -(eps / 2) * (np.kron(O.PZ, O.I2) + np.kron(O.I2, O.PZ))
    p = (O.PX, O.PY, O.PZ)
    h_lab = drift + sum(t[m, n] * np.kron(p[m], p[n])
                        for m in range(3) for n in range(3))
    u_rot = O.expm_h(drift, -t_final) @ O.expm_h(h_lab, t_final)
    u_rwa = O.expm_h(O.coupling_operator(*O.reduce_tensor(t)), t_final)
    return O.phase_distance(u_rot, u_rwa)


# ------------------------------------------------------------ CLI pipeline --
TRACEBACK = "Traceback (most recent call last)"


def documented_exit_codes(cli_source: str) -> set:
    """Exit codes listed in the 'Exit codes:' paragraph of the CLI's
    module docstring, plus 0."""
    m = re.search(r"Exit codes:(.*?)(?:\n\s*\n|\"\"\")", cli_source, re.S)
    codes = {int(c) for c in re.findall(r"\b(\d+)\s+[a-zA-Z]",
                                        m.group(1))} if m else set()
    return codes | {0}


def _matrix_json(u: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in u]


def _c2(m) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in m])


class CliPipeline:
    """One op is one `python -m qgd.cli` subprocess. A cycle runs compile,
    simulate of its result, simulate of bare schedules in the
    exact_up_to_phase and local_class modes, kak, invariants and
    trajectory, each on seeded files. probes() lists requests that qgd
    mishandles at the time of writing; every run reports them apart from
    the timed mix."""

    name = "cli_pipeline"

    def __init__(self, qgd, workdir, small=False):
        self.q = qgd
        self.dir = workdir
        # One cycle of the seven commands: each ~140 ms call then gets ~20
        # passes a run, enough for its fastest to ride out slow seconds.
        self.pool = 1
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        with open(os.path.join(root, "src", "qgd", "cli.py")) as fh:
            self.exit_codes = documented_exit_codes(fh.read())

    def _write(self, name: str, data) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def make_inputs(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 3])
        ops = []
        for k in range(self.pool):
            # compile on a coupling of a seeded regime, tensor or reduced.
            m = [_magnitude(rng) for _ in range(3)]
            params = [(0.0, m[1], 0.0), (m[0], m[1], 0.0), (m[0], 0.0, 0.0),
                      (m[0], m[1], m[2])][int(rng.integers(4))]
            if rng.integers(2):
                t = _tensor_for(rng, *params)
                params = tuple(map(float, O.reduce_tensor(t)))
                data = {f"J{a}{b}": float(t[i, j])
                        for i, a in enumerate("xyz") for j, b in enumerate("xyz")}
                data["unit"] = "angular frequency"
            else:
                data = {"J": params[0], "Jzz": params[1], "Jprime": params[2]}
            cfile = self._write(f"coupling{k}.json", data)
            rfile = os.path.join(self.dir, f"result{k}.json")
            ops.append({"kind": "compile", "params": params, "prefer": "auto",
                        "args": ["compile", "--input", cfile],
                        "result_file": rfile})
            ops.append({"kind": "simulate_result",
                        "args": ["simulate", "--input", rfile],
                        "params": params, "result_file": rfile})
            # simulate bare schedules under an Ising coupling.
            jzz = _magnitude(rng)
            ising = self._write(f"ising{k}.json",
                                {"J": 0.0, "Jzz": jzz, "Jprime": 0.0})
            bare = O.ising_cnot_ops(jzz)
            sfile = self._write(f"bare{k}.json", O.ops_to_json(bare))
            ops.append({"kind": "simulate_bare", "mode": "exact_up_to_phase",
                        "sched": bare, "params": (0.0, jzz, 0.0),
                        "args": ["simulate", "--input", sfile, "--coupling",
                                 ising, "--mode", "exact_up_to_phase"]})
            local = [("rotate", str(rng.choice(list("xyz"))),
                      float(rng.uniform(-math.pi, math.pi)), int(qb))
                     for qb in rng.integers(1, 3, size=3)]
            cls = local + [("entangle", math.pi / (4 * abs(jzz)))] + local[::-1]
            lfile = self._write(f"local{k}.json", O.ops_to_json(cls))
            ops.append({"kind": "simulate_bare", "mode": "local_class",
                        "sched": cls, "params": (0.0, jzz, 0.0),
                        "args": ["simulate", "--input", lfile, "--coupling",
                                 ising, "--mode", "local_class"]})
            # kak and invariants on a seeded matrix.
            u = (O.haar_unitary(rng) if rng.integers(2)
                 else _dressed(rng, O.entangler(X_RETRY, X_RETRY, 0.0)))
            mfile = self._write(f"matrix{k}.json", _matrix_json(u))
            ops.append({"kind": "kak", "u": u,
                        "args": ["kak", "--input", mfile]})
            ops.append({"kind": "invariants", "u": u,
                        "args": ["invariants", "--input", mfile]})
            # trajectory of a refocusing schedule (J' = 0).
            j, j_zz = _magnitude(rng), _magnitude(rng)
            tc = self._write(f"tcoupling{k}.json",
                             {"J": j, "Jzz": j_zz, "Jprime": 0.0})
            axes = rng.choice(["x", "y"], size=2)
            refocus = [("entangle", float(rng.uniform(0.1, 1.0))),
                       ("rotate", str(axes[0]), math.pi, 1),
                       ("entangle", float(rng.uniform(0.1, 1.0))),
                       ("rotate", str(axes[1]), -math.pi, 2),
                       ("entangle", float(rng.uniform(0.1, 1.0)))]
            tfile = self._write(f"refocus{k}.json", O.ops_to_json(refocus))
            ops.append({"kind": "trajectory", "sched": refocus, "j": j,
                        "j_zz": j_zz, "args": ["trajectory", "--coupling",
                                               tc, "--schedule", tfile]})
        return ops

    def probes(self, seed: int) -> list:
        """Four malformed requests that must be refused with a documented
        exit code and no traceback (a NaN coupling, a denormal J, a
        schedule given as a JSON object, a zero ratio), and one schedule
        that is CNOT up to a global phase, which exact_up_to_phase must
        pass."""
        rng = np.random.default_rng([seed, 4])
        nan = self._write("nan.json", {"J": float("nan"),
                                       "Jzz": _magnitude(rng), "Jprime": 0.0})
        tiny = self._write("tiny.json", {"J": float(rng.choice([-1, 1]))
                                         * 1e-320, "Jzz": 0.0, "Jprime": 0.0})
        tc = self._write("obj_coupling.json",
                         {"J": _magnitude(rng), "Jzz": 0.0, "Jprime": 0.0})
        obj = self._write("obj_schedule.json",
                          {"op": "entangle",
                           "duration": float(rng.uniform(0.1, 1.0))})
        out = [{"kind": "malformed", "args": a} for a in (
            ["compile", "--input", nan],
            ["compile", "--input", tiny],
            ["trajectory", "--coupling", tc, "--schedule", obj],
            ["rwa-scan", "--ratios", "0"])]
        jzz = _magnitude(rng)
        ising = self._write("phase_coupling.json",
                            {"J": 0.0, "Jzz": jzz, "Jprime": 0.0})
        bare = [op for op in O.ising_cnot_ops(jzz) if op[0] != "phase"]
        sfile = self._write("phase_schedule.json", O.ops_to_json(bare))
        out.append({"kind": "simulate_bare", "mode": "exact_up_to_phase",
                    "sched": bare, "params": (0.0, jzz, 0.0),
                    "args": ["simulate", "--input", sfile, "--coupling",
                             ising, "--mode", "exact_up_to_phase"]})
        return out

    def run(self, inp):
        p = subprocess.run([sys.executable, "-m", "qgd.cli", *inp["args"]],
                           capture_output=True, text=True, env=self.env,
                           timeout=120)
        return p.returncode, p.stdout, p.stderr

    def run_inprocess(self, inp):
        """The same command through the click group in this process."""
        import contextlib
        import io

        import click

        from qgd import cli
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(inp["args"], standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.ClickException as exc:
                code = exc.exit_code
            except Exception:  # noqa: BLE001 - a real CLI would print it
                import traceback
                err.write(traceback.format_exc())
                code = 1
        return code, out.getvalue(), err.getvalue()

    def check(self, inp, res) -> float:
        code, out, err = res
        _require(TRACEBACK not in err, f"traceback from {inp['args'][0]}")
        _require(code in self.exit_codes, f"undocumented exit code {code}")
        if inp["kind"] == "malformed":
            _require(code != 0, "malformed request accepted")
            return 0.0
        _require(code == 0, f"{inp['args'][0]} exited {code}: {err.strip()}")
        kind = inp["kind"]
        if kind == "compile":
            d = json.loads(out)
            _require(d["verification"]["passed"] is True, "not verified")
            reported = (d["params"]["J"], d["params"]["Jzz"],
                        d["params"]["Jprime"])
            e = check_compiled(inp["params"], inp["prefer"],
                               O.ops_from_json(d["schedule"]), d["target"],
                               reported)
            with open(inp["result_file"], "w") as fh:
                fh.write(out)
            return e
        if kind == "simulate_result":
            rep = json.loads(out)
            with open(inp["result_file"]) as fh:
                sched = O.ops_from_json(json.load(fh)["schedule"])
            u = O.schedule_unitary(sched, O.coupling_operator(*inp["params"]))
            mine = O.frob(u, O.TARGETS[rep["target"]])
            _require(mine < O.EXACT_TOL and rep["passed"] is True,
                     "simulate did not verify the compiled schedule")
            e = abs(rep["exact_distance"] - mine)
            _require(e < O.EXACT_TOL, "simulate exact distance is wrong")
            return max(mine, e)
        if kind == "simulate_bare":
            rep = json.loads(out)
            u = O.schedule_unitary(inp["sched"],
                                   O.coupling_operator(*inp["params"]))
            if inp["mode"] == "exact_up_to_phase":
                mine, theirs = O.phase_distance(u, O.CNOT), rep["phase_distance"]
            else:
                mine = O.invariant_distance(O.invariants(u),
                                            O.invariants(O.CNOT))
                theirs = rep["invariant_distance"]
            _require(mine < O.EXACT_TOL and rep["passed"] is True,
                     f"{inp['mode']} simulate did not pass")
            e = abs(theirs - mine)
            _require(e < O.EXACT_TOL, f"{inp['mode']} distance is wrong")
            return max(mine, e)
        if kind == "kak":
            d = json.loads(out)
            return check_kak(self.q, inp["u"], O.invariants(inp["u"]),
                             d["phase"], [_c2(m) for m in d["u_post"]],
                             np.array(d["coords"]),
                             [_c2(m) for m in d["u_pre"]])
        if kind == "invariants":
            d = json.loads(out)
            e = O.invariant_distance((complex(*d["G1"]), d["G2"]),
                                     O.invariants(inp["u"]))
            _require(e < O.EXACT_TOL, "invariants are wrong")
            return e
        rows = [list(map(float, line.split(",")))
                for line in out.strip().splitlines()[1:]]
        end, intervals = O.trajectory_endpoint(inp["j"], inp["j_zz"],
                                               inp["sched"])
        _require(len(rows) == 1 + 32 * intervals, "wrong trajectory length")
        _require(rows[0][:4] == [0.0, 0.0, 0.0, 0.0], "does not start at 0")
        e = float(np.max(np.abs(np.array(rows[-1][1:4]) - end)))
        total = sum(op[1] for op in inp["sched"] if op[0] == "entangle")
        e = max(e, abs(rows[-1][0] - total))
        _require(e < 1e-9, "trajectory endpoint off the area theorem")
        return e


def make(name: str, qgd, workdir=None, small=False):
    cls = {"compile_sweep": CompileSweep, "gate_analysis": GateAnalysis,
           "rwa_scan": RwaScan, "cli_pipeline": CliPipeline}[name]
    return cls(qgd, workdir, small)
