"""Two-qubit quantum gate synthesis for weakly coupled qubits.

Re-exports the public names of: error types with exit codes (errors),
the 4x4 matrix algebra (qmat; it has no public exponential), coupling
reduction, the rotating-frame Hamiltonian and propagator, and the
rotating-wave check, which builds the lab-frame Hamiltonian itself
(hamiltonian), the entangler A(x,y,z) and its coordinates
(entangler), Makhlin invariants and KAK (equivalence), pulse schedules,
simulation, trajectories as unwrapped Trajectory paths, and verification
(pulses), and the CNOT compiler (compiler). qgd.cli holds the
command-line front end.
"""
from .errors import (NotUnitary, QgdError, UnknownGate, UnsupportedOp,
                     VerificationFailed, ZeroCoupling)
from .qmat import distance
from .hamiltonian import (CouplingTensor, RotFrameParams, reduce_coupling,
                          rot_frame_matrix, rot_frame_propagator,
                          rwa_infidelity)
from .entangler import EntanglerCoords, canonical_entangler
from .equivalence import (KakFactors, MakhlinInvariants, kak_decompose,
                          locally_equivalent, makhlin_invariants,
                          weyl_canonicalize)
from .pulses import (Entangle, GlobalPhase, PulseSchedule, Rotate,
                     Trajectory, VerificationReport, simulate_schedule,
                     trajectory, verify_schedule)
from .compiler import CompileResult, compile_cnot, named_gate

__version__ = "0.1.0"
