"""Two-qubit quantum gate synthesis for weakly coupled qubits.

Core pieces: dense 4x4 matrix algebra (qmat), coupling-tensor reduction
and rotating-frame Hamiltonians (hamiltonian), the canonical entangler
3-torus (entangler), Makhlin invariants and KAK decomposition
(equivalence), pulse schedules and their simulation, trajectories and
verification (pulses), and the CNOT compiler
(compiler). A command-line front end lives in qgd.cli.
"""
from .errors import (NonHermitianInput, NotUnitary, QgdError, UnknownGate,
                     UnsupportedOp, VerificationFailed, ZeroCoupling)
from .qmat import distance, expm_hermitian, kron
from .hamiltonian import (CouplingTensor, RotFrameParams,
                          lab_frame_hamiltonian, reduce_coupling,
                          rot_frame_matrix, rot_frame_propagator,
                          rwa_infidelity)
from .entangler import (EntanglerCoords, Trajectory, canonical_entangler,
                        coords_from_area)
from .equivalence import (KakFactors, MakhlinInvariants, kak_decompose,
                          locally_equivalent, makhlin_invariants,
                          weyl_canonicalize)
from .pulses import (Entangle, GlobalPhase, PulseSchedule, Rotate,
                     VerificationReport, rotation_matrix, simulate_schedule,
                     trajectory, verify_schedule)
from .compiler import CompileResult, compile_cnot, named_gate

__version__ = "0.1.0"
