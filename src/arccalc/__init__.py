"""
arccalc: combinatorial calculus of arc systems on oriented surfaces.

Permutation invariants of thickened arc systems, cut-surface arithmetic, an
independent ribbon-graph boundary tracer, exact integer homology of the
permutation chain complex and its realizability quotients, first-page
spectral bookkeeping, and the inequality ledgers of the stability proofs.
"""

from .perms import (
    boundary,
    compose,
    cycle_count,
    face,
    hat,
    identity,
    inverse,
    rotation,
)
from .surfaces import (
    ArcClass,
    SurfaceType,
    boundary_of_neighborhood,
    cut_surface,
    genus_counts,
    glue,
    realizable,
    realizable_perms,
    simplex_genus,
)
from .ribbon import RibbonGraph, build_ribbon, oracle_boundary_count, trace_faces
from .intmat import SNFResult, SparseIntMatrix, snf
from .complexes import (
    ChainComplex,
    HomologyGroup,
    complement_report,
    exactness_report,
    homology,
    perm_complex,
    quotient_complex,
    verify_homotopy,
    verify_homotopy_sampled,
    verify_quotient_homotopy,
)
from .e1page import E1Page, Summand, cancellation_report, d1_matrix, e1_skeleton
from .ledger import (
    ExceptionTuple,
    Obligation,
    check_orbit_set_exceptions,
    epsilon,
    main_theorem_ledger,
    orbit_set_exceptions,
    twisted_range,
)

__version__ = "0.1.0"
