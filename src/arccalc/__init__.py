"""
arccalc: combinatorial calculus of arc systems on oriented surfaces.

Permutation invariants of thickened arc systems, cut-surface arithmetic, an
independent ribbon-graph boundary tracer, exact integer homology of the
permutation chain complex and its realizability quotients, first-page
spectral bookkeeping, and the inequality ledgers of the stability proofs.

Importing the package loads none of its modules, so a start of the command
line loads only the package and ``arccalc.cli``, and each command then loads
the modules it runs.  Each public name is looked up in ``_HOMES`` when it is
read, and its module is imported the first time.  The package defines the
two library values that the command-line parser reads, ``MAX_DEGREE_CAP``
and ``EXCEPTION_CASES``.
"""

__version__ = "0.1.0"

# the two library values that the command-line parser reads, kept here so
# that building the parser loads no module
MAX_DEGREE_CAP = 8  # factorial growth; degree 9 is out of the supported range
EXCEPTION_CASES = ("inj-s11", "surj-s01", "surj-s11")  # the orbit-set exception lists, sorted

# public name -> the module that defines it
_HOMES = {
    name: module
    for module, names in (
        ("perms", "boundary compose cycle_count face hat identity inverse rotation"),
        ("surfaces", "ArcClass SurfaceType boundary_of_neighborhood cut_surface genus_counts glue realizable"
                     " realizable_perms simplex_genus"),
        ("ribbon", "RibbonGraph build_ribbon oracle_boundary_count trace_faces"),
        ("intmat", "SNFResult SparseIntMatrix snf"),
        ("complexes", "ChainComplex HomologyGroup complement_report exactness_report homology perm_complex"
                      " quotient_complex verify_homotopy verify_homotopy_sampled verify_quotient_homotopy"),
        ("e1page", "E1Page Summand cancellation_report d1_matrix e1_skeleton"),
        ("ledger", "ExceptionTuple Obligation check_orbit_set_exceptions epsilon main_theorem_ledger"
                   " orbit_set_exceptions twisted_range"),
    )
    for name in names.split()
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    # read afresh on each access, never stored here, so a name always gives
    # what its module holds now
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())
