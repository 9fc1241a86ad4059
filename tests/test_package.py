"""
The package loads its modules lazily, and each command loads only the
modules that it runs.
"""

import importlib
import subprocess
import sys

import pytest

import arccalc
from arccalc import ledger

# every public name of the package, with the module that defines it
PUBLIC = {
    "perms": ["boundary", "compose", "cycle_count", "face", "hat", "identity", "inverse", "rotation"],
    "surfaces": [
        "ArcClass", "SurfaceType", "boundary_of_neighborhood", "cut_surface", "genus_counts", "glue",
        "realizable", "realizable_perms", "simplex_genus",
    ],
    "ribbon": ["RibbonGraph", "build_ribbon", "oracle_boundary_count", "trace_faces"],
    "intmat": ["SNFResult", "SparseIntMatrix", "snf"],
    "complexes": [
        "ChainComplex", "HomologyGroup", "complement_report", "exactness_report", "homology", "perm_complex",
        "quotient_complex", "verify_homotopy", "verify_homotopy_sampled", "verify_quotient_homotopy",
    ],
    "e1page": ["E1Page", "Summand", "cancellation_report", "d1_matrix", "e1_skeleton"],
    "ledger": [
        "ExceptionTuple", "Obligation", "check_orbit_set_exceptions", "epsilon", "main_theorem_ledger",
        "orbit_set_exceptions", "twisted_range",
    ],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]

# run in a fresh interpreter: the arccalc modules loaded after main(argv)
PROBE = """
import sys
from arccalc.cli import main
try:
    main(sys.argv[1:])
finally:
    sys.stderr.write(" ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "arccalc")))
"""


def loaded(*argv: str) -> set[str]:
    res = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    assert res.returncode == 0, res.stderr
    return set(res.stderr.split())


class TestLazyPackage:
    def test_there_are_46_public_names(self):
        assert len(NAMES) == len(set(NAMES)) == 46
        assert sorted(arccalc.__all__) == sorted(name for _, name in NAMES)

    @pytest.mark.parametrize("module, name", NAMES)
    def test_a_name_is_its_modules_object(self, module, name):
        assert getattr(arccalc, name) is getattr(importlib.import_module(f"arccalc.{module}"), name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from arccalc import *", namespace)
        for module, name in NAMES:
            assert namespace[name] is getattr(importlib.import_module(f"arccalc.{module}"), name)

    def test_dir_lists_every_name(self):
        assert {name for _, name in NAMES} <= set(dir(arccalc))

    def test_an_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
            arccalc.nonsense
        assert not hasattr(arccalc, "all_perms")  # public in perms, not in the package

    def test_a_name_reads_what_its_module_holds_now(self, monkeypatch):
        from arccalc import intmat

        monkeypatch.setattr(intmat, "snf", "patched")
        assert arccalc.snf == "patched"

    def test_importing_the_package_loads_no_module(self):
        code = "import sys, arccalc; print(sorted(m for m in sys.modules if m.startswith('arccalc.')))"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"

    def test_the_exception_cases_are_the_ledgers(self):
        assert arccalc.EXCEPTION_CASES == tuple(sorted(ledger._CASES))
        assert ledger.EXCEPTION_CASES is arccalc.EXCEPTION_CASES


class TestCommandLoads:
    @pytest.mark.parametrize("argv", [["--describe"], ["homology", "--help"]])
    def test_the_parser_loads_no_library_module(self, argv):
        assert loaded(*argv) == {"arccalc", "arccalc.cli"}

    @pytest.mark.parametrize(
        "argv, runs, absent",
        [
            (["exceptions", "--case", "surj-s11"], "ledger", {"complexes", "intmat", "e1page", "ribbon"}),
            (["oracle-diff", "--max-degree", "3"], "ribbon", {"complexes", "intmat", "e1page", "ledger"}),
            (["homology", "--genus", "2", "--side", "1", "--max-degree", "3"], "complexes", {"e1page", "ledger", "ribbon"}),
        ],
    )
    def test_a_command_loads_only_what_it_runs(self, argv, runs, absent):
        modules = loaded(*argv)
        assert f"arccalc.{runs}" in modules
        assert not modules & {f"arccalc.{m}" for m in absent}

    def test_the_cli_names_still_resolve(self):
        from arccalc import cli, ribbon

        assert cli.oracle_boundary_count is ribbon.oracle_boundary_count
        for alias in ("snf", "complexes", "all_perms", "boundary_count"):
            with pytest.raises(AttributeError):
                getattr(cli, alias)
