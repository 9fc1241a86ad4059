"""
The traced in-process run: which arccalc functions get a span, which work
counts ride along, and how spans become the per-layer metrics.

Nothing in ``src/`` is instrumented.  The tracer rebinds every module-level
name that refers to a traced function (modules import each other with
``from .x import y``, so each importer holds its own binding) and patches the
traced methods on their classes; ``trace_workload`` puts every binding back
before it returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import sys
from dataclasses import dataclass, field
from time import perf_counter

from spans import Rebinder, Recorder

MODULES = ("perms", "surfaces", "ribbon", "intmat", "complexes", "e1page", "ledger", "cli")

# span name -> (defining module, attribute)
FUNCTIONS = {
    "intmat.snf": ("intmat", "snf"),
    "perms.boundary": ("perms", "boundary"),
    "perms.homotopy_d_on_sum": ("perms", "homotopy_d_on_sum"),
    "surfaces.boundary_of_neighborhood": ("surfaces", "boundary_of_neighborhood"),
    "surfaces.realizable_perms": ("surfaces", "realizable_perms"),
    "ribbon.build_ribbon": ("ribbon", "build_ribbon"),
    "ribbon.trace_faces": ("ribbon", "trace_faces"),
    "ribbon.oracle_boundary_count": ("ribbon", "oracle_boundary_count"),
    "complexes.verify_homotopy": ("complexes", "verify_homotopy"),
    "complexes.verify_quotient_homotopy": ("complexes", "verify_quotient_homotopy"),
    "complexes.verify_homotopy_sampled": ("complexes", "verify_homotopy_sampled"),
    "e1page.e1_skeleton": ("e1page", "e1_skeleton"),
    "e1page.d1_matrix": ("e1page", "d1_matrix"),
    "e1page.quotient_boundary_matrix": ("e1page", "quotient_boundary_matrix"),
    "ledger.main_theorem_ledger": ("ledger", "main_theorem_ledger"),
    "ledger.check_orbit_set_exceptions": ("ledger", "check_orbit_set_exceptions"),
}

# (span name, module, class, method); several methods may share one span name
METHODS = (
    ("complexes.ChainComplex", "complexes", "ChainComplex", "__init__"),
    ("perms.formal_sum", "perms", "FormalSum", "from_terms"),
    ("perms.formal_sum", "perms", "FormalSum", "__add__"),
    ("perms.formal_sum", "perms", "FormalSum", "__eq__"),
)

# process-wide caches; cleared before every invocation so that the traced
# run, like a fresh process, never hits an entry an earlier command filled
CACHES = (("surfaces", "_neighborhood_boundary"), ("surfaces", "realizable_perms"))

# (metric, unit, better) reported by the traced run, in output order
PER_LAYER = (
    ("intmat.snf.calls", "count", "lower"),
    ("intmat.snf.self_s", "s", "lower"),
    ("intmat.snf.nnz_in", "count", "lower"),
    ("intmat.snf.rank_sum", "count", "higher"),
    ("intmat.snf.nonunit_factors", "count", "lower"),
    ("complexes.snf_calls_per_matrix", "ratio", "lower"),
    ("complexes.snf_matrices", "count", "lower"),
    ("complexes.ChainComplex.calls", "count", "lower"),
    ("complexes.ChainComplex.self_s", "s", "lower"),
    ("complexes.verify_homotopy.self_s", "s", "lower"),
    ("complexes.verify_quotient_homotopy.self_s", "s", "lower"),
    ("complexes.verify_homotopy_sampled.self_s", "s", "lower"),
    ("perms.boundary.calls", "count", "lower"),
    ("perms.boundary.self_s", "s", "lower"),
    ("perms.formal_sum.calls", "count", "lower"),
    ("perms.formal_sum.self_s", "s", "lower"),
    ("perms.homotopy_d_on_sum.self_s", "s", "lower"),
    ("surfaces.boundary_of_neighborhood.calls", "count", "lower"),
    ("surfaces.boundary_of_neighborhood.self_s", "s", "lower"),
    ("surfaces.realizable_perms.self_s", "s", "lower"),
    ("surfaces.realizable_perms.words", "count", "lower"),
    ("surfaces.nbhd_cache.hit_ratio", "ratio", "higher"),
    ("surfaces.nbhd_cache.calls", "count", "lower"),
    ("ribbon.build_ribbon.self_s", "s", "lower"),
    ("ribbon.trace_faces.self_s", "s", "lower"),
    ("ribbon.oracle_boundary_count.calls", "count", "lower"),
    ("e1page.e1_skeleton.self_s", "s", "lower"),
    ("e1page.d1_matrix.self_s", "s", "lower"),
    ("e1page.quotient_boundary_matrix.self_s", "s", "lower"),
    ("ledger.main_theorem_ledger.self_s", "s", "lower"),
    ("ledger.obligations", "count", "higher"),
    ("ledger.check_orbit_set_exceptions.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace_overhead_s", "s", "lower"),
)


@dataclass
class Counts:
    """Work counted at the traced boundaries, beside the spans."""

    snf_nnz_in: int = 0
    snf_rank_sum: int = 0
    snf_nonunit_factors: int = 0
    realizable_words: int = 0
    obligations: int = 0
    nbhd_hits: int = 0
    nbhd_misses: int = 0
    output_bytes: int = 0
    snf_matrices: int = 0
    # matrices passed to snf in the current invocation, held so that no id is
    # recycled before end_invocation counts them
    _snf_inputs: dict = field(default_factory=dict)

    def saw_snf(self, args, result) -> None:
        m = args[0]
        self.snf_nnz_in += m.nnz
        self.snf_rank_sum += result.rank
        self.snf_nonunit_factors += sum(1 for f in result.invariant_factors if f != 1)
        self._snf_inputs[id(m)] = m

    def saw_realizable(self, args, result) -> None:
        self.realizable_words += len(result)

    def saw_ledger(self, args, result) -> None:
        self.obligations += len(result)

    def end_invocation(self, nbhd_cache) -> None:
        self.snf_matrices += len(self._snf_inputs)
        self._snf_inputs.clear()
        info = nbhd_cache.cache_info()
        self.nbhd_hits += info.hits
        self.nbhd_misses += info.misses


@dataclass
class InProcessRun:
    recorder: Recorder
    counts: Counts
    outputs: list[tuple[int, str]]  # (exit code, sha256 of stdout) per invocation
    total_s: float


def import_arccalc() -> dict:
    """The arccalc modules by short name."""
    return {name: importlib.import_module(f"arccalc.{name}") for name in MODULES}


def install(mods: dict, recorder: Recorder, counts: Counts, rebinder: Rebinder) -> None:
    """Route every traced function and method through ``recorder``."""
    package = [m for name, m in sys.modules.items() if name == "arccalc" or name.startswith("arccalc.")]
    observers = {
        "intmat.snf": counts.saw_snf,
        "surfaces.realizable_perms": counts.saw_realizable,
        "ledger.main_theorem_ledger": counts.saw_ledger,
    }
    for span, (module, attr) in FUNCTIONS.items():
        original = getattr(mods[module], attr)
        wrapped = recorder.wrap(span, original, observers.get(span))
        if not rebinder.rebind_everywhere(package, original, wrapped):
            raise RuntimeError(f"no binding of arccalc.{module}.{attr} found")
    for span, module, cls_name, attr in METHODS:
        cls = getattr(mods[module], cls_name)
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            rebinder.set(cls, attr, classmethod(recorder.wrap(span, raw.__func__)))
        else:
            rebinder.set(cls, attr, recorder.wrap(span, raw))


def run_in_process(argvs: list[list[str]], traced: bool = True) -> InProcessRun:
    """
    Run each argv through ``arccalc.cli.main`` in this process, with the
    caches cleared before each; with ``traced`` every traced function and
    method records spans.
    """
    mods = import_arccalc()
    caches = [getattr(mods[module], attr) for module, attr in CACHES]
    nbhd_cache = caches[0]  # read before install() rebinds the names
    recorder, counts, rebinder = Recorder(), Counts(), Rebinder()
    main = recorder.wrap("cli", mods["cli"].main) if traced else mods["cli"].main
    outputs = []
    t0 = perf_counter()
    try:
        if traced:
            install(mods, recorder, counts, rebinder)
        for argv in argvs:
            for cache in caches:
                cache.cache_clear()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            data = buf.getvalue().encode()
            counts.output_bytes += len(data)
            outputs.append((code, hashlib.sha256(data).hexdigest()))
            counts.end_invocation(nbhd_cache)
    finally:
        rebinder.restore()
    total_s = perf_counter() - t0
    for cache in caches:
        cache.cache_clear()
    return InProcessRun(recorder, counts, outputs, total_s)


def layer_metrics(run: InProcessRun, untraced_s: float) -> dict[str, float]:
    """
    Every ``PER_LAYER`` metric; a layer that was never called reads 0.
    ``untraced_s`` is the same workload's in-process time without tracing.
    """
    stats = run.recorder.self_times()
    c = run.counts

    def calls(span: str) -> int:
        return stats.get(span, (0, 0))[0]

    values: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        if metric.endswith(".self_s"):
            values[metric] = stats.get(metric[: -len(".self_s")], (0, 0))[1] / 1e9
        elif metric.endswith(".calls"):
            values[metric] = calls(metric[: -len(".calls")])
    nbhd_calls = c.nbhd_hits + c.nbhd_misses
    matrices = c.snf_matrices
    values.update(
        {
            "intmat.snf.nnz_in": c.snf_nnz_in,
            "intmat.snf.rank_sum": c.snf_rank_sum,
            "intmat.snf.nonunit_factors": c.snf_nonunit_factors,
            "complexes.snf_calls_per_matrix": calls("intmat.snf") / matrices if matrices else 0,
            "complexes.snf_matrices": matrices,
            "surfaces.realizable_perms.words": c.realizable_words,
            "surfaces.nbhd_cache.hit_ratio": c.nbhd_hits / nbhd_calls if nbhd_calls else 0,
            "surfaces.nbhd_cache.calls": nbhd_calls,
            "ledger.obligations": c.obligations,
            "cli.output_bytes": c.output_bytes,
            "trace_overhead_s": run.total_s - untraced_s,
        }
    )
    return values
