"""Command-line front end.

Subcommands: invariants, kak, compile, simulate, trajectory, rwa-scan.
Matrices travel as JSON 4x4 arrays of [re, im] pairs; couplings as a full
tensor {"Jxx": ..., "Jzz": ...} or as {"J": ..., "Jzz": ..., "Jprime": ...},
every key required; schedules as lists of op objects in application order.
--tol sets the verification tolerance, positive and finite, and nothing
else.

Exit codes: 1 invalid input (unparsable file, bad value, usage error or
a request too large for memory), 2 input not unitary within 1e-9,
3 coupling zero or too weak, 5 unsupported schedule op, 7 unknown gate
name, 8 verification failed.

Codes 4 (nonzero J', which trajectories now draw) and 6 (integrator
non-convergence) are retired and not reused.
"""
from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import compiler, equivalence, hamiltonian, pulses
from .errors import QgdError


class _Group(click.Group):
    """The one error boundary: every usage error, QgdError, ValueError
    and MemoryError raised by the group or a subcommand becomes a message
    on stderr and an exit with its code (QgdError.exit_code, else 1),
    also under main(args, standalone_mode=False)."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.show()  # click's usage message; a usage error is invalid input
            sys.exit(1)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.show()
            sys.exit(1)
        except (QgdError, ValueError, MemoryError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code if isinstance(exc, QgdError) else 1)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError,
            RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValueError(f"cannot parse {path}: {exc}") from exc


def _matrix_from_json(data) -> np.ndarray:
    """The matrix of a JSON list of rows of [re, im] pairs of numbers,
    never booleans; qmat._as_4x4 checks its 4x4 shape."""
    rows = data if isinstance(data, list) else [data]
    for i, row in enumerate(rows):
        for k, z in enumerate(row if isinstance(row, list) else [row]):
            if not (isinstance(z, list) and len(z) == 2
                    and all(type(v) in (int, float) for v in z)):
                raise ValueError(f"bad matrix JSON: entry [{i}][{k}] is "
                                 f"{json.dumps(z)}, not an [re, im] pair")
    try:
        return np.array([[complex(*z) for z in row] for row in rows])
    except (ValueError, OverflowError) as exc:  # ragged rows, a huge int
        raise ValueError(f"bad matrix JSON: {exc}") from exc


def _resolve_unitary(gate: str | None, input_path: str | None) -> np.ndarray:
    if (gate is None) == (input_path is None):
        raise ValueError("give exactly one of --gate or --input")
    if gate is not None:
        return compiler.named_gate(gate)
    return _matrix_from_json(_load_json(input_path))


def _resolve_params(data: dict) -> hamiltonian.RotFrameParams:
    """Accept either a full coupling tensor or reduced parameters."""
    if isinstance(data, dict) and "Jxx" in data:
        return hamiltonian.reduce_coupling(
            hamiltonian.CouplingTensor.from_dict(data))
    return hamiltonian.RotFrameParams.from_dict(data)


@click.group(cls=_Group)
@click.option("--tol", type=float, default=pulses.VERIFY_TOL,
              show_default=True, help="Verification tolerance.")
@click.pass_context
def main(ctx, tol):
    """Two-qubit gate synthesis toolkit for weakly coupled qubits."""
    ctx.obj = {"tol": pulses._tolerance(tol)}


@main.command()
@click.option("--gate", default=None, help="Named gate (e.g. CNOT).")
@click.option("--input", "input_path", default=None,
              help="JSON matrix file.")
def invariants(gate, input_path):
    """Print the Makhlin invariants of a two-qubit unitary."""
    inv = equivalence.makhlin_invariants(_resolve_unitary(gate, input_path))
    click.echo(json.dumps(inv.to_dict()))


@main.command()
@click.option("--gate", default=None, help="Named gate (e.g. CNOT).")
@click.option("--input", "input_path", default=None,
              help="JSON matrix file.")
def kak(gate, input_path):
    """KAK-decompose a two-qubit unitary."""
    factors = equivalence.kak_decompose(_resolve_unitary(gate, input_path))
    click.echo(json.dumps(factors.to_dict()))


@main.command("compile")
@click.option("--input", "input_path", required=True,
              help="Coupling JSON (tensor or reduced parameters).")
@click.option("--prefer", type=click.Choice(["auto", "cnot"]),
              default="auto", show_default=True)
@click.pass_context
def compile_cmd(ctx, input_path, prefer):
    """Compile a verified CNOT (or SWAP*CNOT) pulse schedule."""
    p = _resolve_params(_load_json(input_path))
    result = compiler.compile_cnot(p, prefer=prefer, tol=ctx.obj["tol"])
    click.echo(json.dumps(result.to_dict()))


@main.command()
@click.option("--input", "input_path", required=True,
              help="Schedule JSON (op list, or a compile result).")
@click.option("--coupling", "coupling_path", default=None,
              help="Coupling JSON (default: a compile result's params).")
@click.option("--target", default=None,
              help="Named target gate (default: a compile result's target, "
                   "else CNOT).")
@click.option("--mode", type=click.Choice(
    ["exact", "exact_up_to_phase", "local_class"]),
    default="exact", show_default=True)
@click.pass_context
def simulate(ctx, input_path, coupling_path, target, mode):
    """Simulate a schedule and verify it against a target gate. A compile
    result's params and target are defaults; --coupling and --target win."""
    data = _load_json(input_path)
    result = data if isinstance(data, dict) and "schedule" in data else {}
    if coupling_path is not None:
        params = _resolve_params(_load_json(coupling_path))
    elif result:
        params = hamiltonian.RotFrameParams.from_dict(result.get("params"))
    else:
        raise ValueError("--coupling required for a bare schedule")
    target = result.get("target", "CNOT") if target is None else target
    schedule = pulses.PulseSchedule.from_json(result.get("schedule", data))
    report = pulses.verify_schedule(
        schedule, params, compiler.named_gate(target),
        mode=mode, tol=ctx.obj["tol"], target_name=target)
    click.echo(json.dumps(report.to_dict()))


@main.command()
@click.option("--coupling", "coupling_path", required=True,
              help="Coupling JSON (tensor or reduced parameters).")
@click.option("--schedule", "schedule_path", required=True,
              help="Schedule JSON op list, e.g. a compile result's schedule.")
@click.option("--samples", type=click.IntRange(min=1), default=32,
              show_default=True, help="Samples per entangling interval.")
def trajectory(coupling_path, schedule_path, samples):
    """Emit a schedule's unwrapped entangler-space path as CSV: t,x,y,z."""
    params = _resolve_params(_load_json(coupling_path))
    schedule = pulses.PulseSchedule.from_json(_load_json(schedule_path))
    traj = pulses.trajectory(params, schedule, samples_per_interval=samples)
    click.echo(traj.to_csv(), nl=False)


@main.command("rwa-scan")
@click.option("--ratios", default="1e-1,1e-2,1e-3", show_default=True,
              help="Comma-separated g/eps values.")
@click.option("--coupling", "coupling_path", default=None,
              help="Unit-scale coupling tensor JSON; scaled by g per point. "
                   "Default is a generic tensor with all 9 entries set.")
def rwa_scan(ratios, coupling_path):
    """CSV of rotating-wave infidelity vs coupling/splitting ratio, over
    the horizon g T = pi/8, the area of one refocused CNOT interval."""
    if coupling_path is not None:
        base = hamiltonian.CouplingTensor.from_dict(
            _load_json(coupling_path)).j
    else:
        base = np.array([[1.0, 0.4, 0.3],
                         [0.2, 0.8, -0.5],
                         [0.6, -0.3, 0.9]])
    scale = np.max(np.abs(base))
    if scale == 0:
        raise ValueError("coupling tensor is zero")
    values = [float(r) for r in ratios.split(",")]
    if not all(r > 0 and math.isfinite(r) for r in values):
        raise ValueError(f"ratios {ratios!r} must be positive and finite")
    unit = base / scale  # normalised once: g / scale may overflow
    eps = 1.0
    rows = []  # every row is computed before anything is printed
    for ratio in values:
        g = ratio * eps
        ct = hamiltonian.CouplingTensor(unit * g)
        inf = hamiltonian.rwa_infidelity(ct, eps, math.pi / 8 / g)
        rows.append(f"{ratio:.6g},{inf:.12g}")
    click.echo("\n".join(["ratio,infidelity", *rows]))


if __name__ == "__main__":
    main()
