"""Exact rational solver for mixed integer convex quadratic programs.

Everything is arbitrary-precision rational arithmetic: the simplex and
active-set engines, the diophantine reductions, the lattice routines, and
the top-level solver all return exact values with checkable certificates.
"""

from .cqs import (
    ConvexQuadraticSet,
    FulldimCertificate,
    classify_fulldim,
    fulldim_reduce_cqs,
    inner_polytope,
    magnitude_bound,
    stationary_affine_subspace,
    tangent_face,
)
from .diophantine import (
    AffineParam,
    Empty,
    IntegerReflexiveGinv,
    integer_reflexive_ginv,
    parametrize_mixed_integer_solutions,
)
from .errors import (
    DimensionError,
    InstanceParseError,
    MiqcpError,
    NotPsdError,
    PreconditionError,
)
from .lattice import FlatnessOutcome, LatticeBasis, babai_nearest_plane, flatness, lll_reduce
from .linalg import UnimodularCert, column_reduce_unimodular, rank, rank_with_basis
from .polyhedra import (
    Polyhedron,
    fulldim_reduce_polyhedron,
    implicit_equalities,
    is_fulldim_polyhedron,
    lp_min,
    recession_ray_check,
)
from .qp import QpObjective, QpResult, check_kkt, qp_min, qp_min_on_slice
from .rational import Rat, rat, rat_str
from .rounding import (
    SandwichResult,
    Simplex,
    ceil_sqrt,
    grow_simplex,
    sandwich,
    seed_simplex,
)
from .simplex import LpResult, solve_lp
from .solver import (
    BoundednessResult,
    MicqpInstance,
    SolveStatus,
    Trace,
    boundedness,
    feasibility,
    optimize,
    oracle_optimize,
)

__version__ = "0.1.0"

__all__ = [
    "AffineParam",
    "BoundednessResult",
    "ConvexQuadraticSet",
    "DimensionError",
    "Empty",
    "FlatnessOutcome",
    "FulldimCertificate",
    "InstanceParseError",
    "IntegerReflexiveGinv",
    "LatticeBasis",
    "LpResult",
    "MicqpInstance",
    "MiqcpError",
    "NotPsdError",
    "Polyhedron",
    "PreconditionError",
    "QpObjective",
    "QpResult",
    "Rat",
    "SandwichResult",
    "Simplex",
    "SolveStatus",
    "Trace",
    "UnimodularCert",
    "babai_nearest_plane",
    "boundedness",
    "ceil_sqrt",
    "check_kkt",
    "classify_fulldim",
    "column_reduce_unimodular",
    "feasibility",
    "flatness",
    "fulldim_reduce_cqs",
    "fulldim_reduce_polyhedron",
    "grow_simplex",
    "implicit_equalities",
    "inner_polytope",
    "integer_reflexive_ginv",
    "is_fulldim_polyhedron",
    "lll_reduce",
    "lp_min",
    "magnitude_bound",
    "optimize",
    "oracle_optimize",
    "parametrize_mixed_integer_solutions",
    "qp_min",
    "qp_min_on_slice",
    "rank",
    "rank_with_basis",
    "rat",
    "rat_str",
    "recession_ray_check",
    "sandwich",
    "seed_simplex",
    "solve_lp",
    "stationary_affine_subspace",
    "tangent_face",
]
