"""Boundary integral equations with the generalized Neumann kernel.

Solves Riemann-Hilbert problems Re[A f+] = gamma, and the modified
Dirichlet problem (A = 1), on unbounded multiply connected planar regions.
The boundary integral equation of the second kind is discretized by the
Nystrom method with the trapezoidal rule on uniform periodic grids; the
structural theory behind the method (operator identities, null-space
dimensions, Mobius invariance of the kernels) is exposed as numerical
checks rather than assumed.
"""

from gnk.coefficient import (
    IndexReport,
    One,
    ShiftedPower,
    TrigCoefficient,
    coeff_jet,
    index_of,
    load_coefficient,
    predict_dimensions,
)
from gnk.dirichlet import (
    DirichletSolution,
    solve_modified_dirichlet,
)
from gnk.discrete import (
    DiscreteOperators,
    assemble_N,
    indicator_basis,
    nullity,
    operator_identity_residuals,
)
from gnk.errors import (
    CenterNotInHole,
    ConstancyViolation,
    GnkError,
    InconsistentSystem,
    NonConvergent,
    OddGridSize,
    TooCloseToBoundary,
    ZeroCoefficient,
)
from gnk.geometry import (
    Curve,
    ParamGrid,
    Region,
    circle,
    ellipse,
    load_region,
    validate_region,
)
from gnk.kernels import BoundaryJet
from gnk.mobius import (
    index_shift,
    kernel_invariance_check,
    map_jet,
    mapped_index_of,
)
from gnk.rhp import (
    RHSolution,
    cauchy_eval,
    load_boundary_data,
    plemelj_boundary,
    solve_rhp,
    verify_Sminus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
