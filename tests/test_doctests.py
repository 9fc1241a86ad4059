import doctest
from pathlib import Path

import arccalc.complexes
import arccalc.e1page
import arccalc.intmat
import arccalc.ledger
import arccalc.perms
import arccalc.ribbon
import arccalc.surfaces


def test_doctests():
    for module in (
        arccalc.perms,
        arccalc.surfaces,
        arccalc.ribbon,
        arccalc.intmat,
        arccalc.complexes,
        arccalc.e1page,
        arccalc.ledger,
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    # optimize=0 keeps the example's asserts under python -O
    exec(compile(code, "README.md", "exec", optimize=0), {})
