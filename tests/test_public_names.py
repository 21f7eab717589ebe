"""Every public name refuses a wrong value with a typed error: each
callable of each module's __all__ and of qgd's top level is called with
valid arguments but one, which takes each wrong value in turn, and must
raise ValueError or a QgdError, with warnings as errors."""
import inspect
import math
import warnings

import numpy as np
import pytest

import qgd
from qgd.errors import QgdError

CNOT = qgd.named_gate("CNOT")
_P = qgd.RotFrameParams(1.0, 0.2, 0.1)
_S = qgd.PulseSchedule((qgd.Entangle(0.5),))
_C = qgd.EntanglerCoords(0.1, 0.2, 0.3)

WRONG = {"none": None, "str": "", "object": object(), "nan": math.nan,
         "complex3x3": np.eye(3) * (1 + 1j), "eye2": np.eye(2), "dict": {}}

# Valid values for every positional parameter of each public callable.
VALID = {
    "kron": (np.eye(2), np.eye(2)),
    "coupling_operator": (np.eye(3),),
    "require_unitary": (CNOT,),
    "distance": (CNOT, CNOT, False),
    "CouplingTensor": (np.eye(3),),
    "RotFrameParams": (1.0, 0.2, 0.1),
    "reduce_coupling": (qgd.CouplingTensor(np.eye(3)),),
    "rot_frame_matrix": (_P,),
    "rot_frame_propagator": (_P, 1.0),
    "rwa_infidelity": (qgd.CouplingTensor(np.eye(3)), 1.0, 1.0),
    "EntanglerCoords": (0.1, 0.2, 0.3),
    "canonical_entangler": (_C,),
    "makhlin_invariants": (CNOT,),
    "locally_equivalent": (CNOT, CNOT),
    "kak_decompose": (CNOT,),
    "weyl_canonicalize": (_C,),
    "Rotate": ("x", 1.0, 1),
    "Entangle": (0.5,),
    "GlobalPhase": (0.5,),
    "PulseSchedule": ((qgd.Entangle(0.5),),),
    "simulate_schedule": (_S, _P),
    "trajectory": (_P, _S, 4),
    "verify_schedule": (_S, _P, CNOT, "exact", 1e-9, "CNOT"),
    "compile_cnot": (_P, "auto", 1, 1e-9),
    "named_gate": ("CNOT",),
}

# What is legitimately accepted, as (name, index): a wrong value in the set
# is a value of the argument's type.
ACCEPTED = {
    # Any numeric arrays have a Kronecker product.
    ("kron", 0): {"nan", "complex3x3", "eye2"},
    ("kron", 1): {"nan", "complex3x3", "eye2"},
    # A flag, read by its truth value.
    ("distance", 2): set(WRONG),
    # A label: any string, the empty default included.
    ("verify_schedule", 5): {"str"},
}


def _public_callables():
    """A pytest.param(name, callable) for each callable in a module's
    __all__ or at qgd's top level, but for the error types, which take
    any message. The records the package returns are no public names."""
    names = {}
    for mod in [v for v in vars(qgd).values() if inspect.ismodule(v)]:
        for name in getattr(mod, "__all__", ()):
            names[name] = getattr(mod, name)
    for name, value in vars(qgd).items():
        if not name.startswith("_") and not inspect.ismodule(value):
            names[name] = value
    return [pytest.param(name, value, id=name)
            for name, value in sorted(names.items())
            if callable(value) and not (isinstance(value, type)
                     and issubclass(value, BaseException))]


@pytest.mark.parametrize("name, fn", _public_callables())
def test_every_public_callable_refuses_wrong_values(name, fn):
    positional = [p.name for p in inspect.signature(fn).parameters.values()
                  if p.kind is p.POSITIONAL_OR_KEYWORD]
    valid = VALID[name]
    assert len(valid) == len(positional), "VALID covers every argument"
    fn(*valid)
    accepted = []
    for i, arg in enumerate(positional):
        for label, wrong in WRONG.items():
            if label in ACCEPTED.get((name, i), ()):
                continue
            args = list(valid)
            args[i] = wrong
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    fn(*args)
                except (ValueError, QgdError):
                    continue
            accepted.append((arg, label))
    assert accepted == []
