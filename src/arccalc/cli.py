"""
Command-line front end: every verification suite as a subcommand with
machine-readable output.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.  Output is
deterministic for a fixed configuration.  Reports are written as they are
rendered, JSON a block of encoder chunks at a time and CSV and table a line
at a time, so no whole-report string is held.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from multiprocessing import get_context
from types import SimpleNamespace
from typing import Iterator

from . import complexes, e1page, ledger
from .perms import all_perms
from .ribbon import oracle_boundary_count
from .surfaces import (
    ArcClass,
    SurfaceType,
    boundary_count,
    boundary_of_neighborhood,
    cut_surface,
    simplex_genus,
)

FORMATS = ("json", "csv", "table")
FORMAT_ENV = "ARCCALC_FORMAT"

# encoder chunks joined per write: one write per chunk is slow, and one write
# of the joined report holds the chunk list and the whole string at once
JSON_BLOCK = 8192

# registry used both to build the parser and to answer --describe
COMMAND_FLAGS: dict[str, list[tuple[str, dict]]] = {
    "invariants": [
        ("--perm", {"required": True, "help": "comma-separated word, e.g. 1,2,0"}),
        ("--side", {"type": int, "choices": (1, 2), "required": True, "help": "1 or 2"}),
        ("--ambient", {"default": None, "help": "ambient surface as g,r"}),
    ],
    "oracle-diff": [
        ("--max-degree", {"type": int, "default": 6, "help": "exhaustive degree cap (<= 8)"}),
    ],
    "homology": [
        ("--genus", {"type": int, "required": True, "help": "quotient genus (>= 2)"}),
        ("--side", {"type": int, "choices": (1, 2), "required": True, "help": "1 or 2"}),
        ("--max-degree", {"type": int, "default": None, "help": "degree cap (<= 8)"}),
    ],
    "homotopy": [
        ("--max-degree", {"type": int, "default": 6, "help": "exhaustive degree cap (<= 8)"}),
        ("--genus", {"type": int, "default": None, "help": "also check the quotient lift at this genus"}),
        ("--side", {"type": int, "choices": (1, 2), "default": None, "help": "side for the quotient lift"}),
        ("--samples", {"type": int, "default": 0, "help": "random words per sampled degree"}),
        ("--sample-degree", {"type": int, "action": "append", "default": None, "help": "degree to sample (repeatable)"}),
    ],
    "e1": [
        ("--ambient", {"required": True, "help": "ambient surface as g,r"}),
        ("--side", {"type": int, "choices": (1, 2), "required": True, "help": "1 or 2"}),
        ("--max-p", {"type": int, "default": 4, "help": "last page column"}),
        ("--with-d1", {"action": "store_true", "help": "emit first-differential matrices and check them"}),
    ],
    "ledger": [
        ("--g-max", {"type": int, "default": 50, "help": "genus grid bound"}),
        ("--k-max", {"type": int, "default": 20, "help": "degree grid bound"}),
        ("--failures-only", {"action": "store_true", "help": "emit only violated obligations"}),
    ],
    "exceptions": [
        ("--case", {"required": True, "choices": ledger.EXCEPTION_CASES, "help": "exception list to re-derive"}),
    ],
}

COMMAND_HELP = {
    "invariants": "thickening invariants and stabilizer label of one arc class",
    "oracle-diff": "closed-form boundary count vs ribbon trace, exhaustively",
    "homology": "exactness report of the realizability quotient complex",
    "homotopy": "contraction identity on the full and quotient complexes",
    "e1": "first-page summand tables and first differentials",
    "exceptions": "brute-force orbit-set exception lists",
    "ledger": "inequality obligations of the stability induction",
}


GLOBAL_FLAGS: list[tuple[str, dict]] = [
    ("--format", {"choices": FORMATS, "default": None, "help": f"output format (default from ${FORMAT_ENV} or table)"}),
    ("--output", {"default": None, "help": "write the report to this path instead of stdout"}),
    ("--threads", {"type": int, "default": 1, "help": "worker count for exhaustive sweeps"}),
    ("--seed", {"type": int, "default": 0, "help": "seed for sampled checks"}),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arccalc",
        description="combinatorial arc-system calculus: invariants, homology, stability bookkeeping",
    )
    parser.add_argument("--describe", action="store_true", help="print a JSON description of all subcommands and exit")
    sub = parser.add_subparsers(dest="command")
    for name, flags in COMMAND_FLAGS.items():
        p = sub.add_parser(name, help=COMMAND_HELP[name])
        for flag, kwargs in flags + GLOBAL_FLAGS:
            p.add_argument(flag, **kwargs)
    return parser


def describe() -> dict:
    return {
        "commands": {
            name: {
                "help": COMMAND_HELP[name],
                "flags": [flag for flag, _ in flags] + [flag for flag, _ in GLOBAL_FLAGS],
            }
            for name, flags in sorted(COMMAND_FLAGS.items())
        },
        "global_flags": ["--describe"] + [flag for flag, _ in GLOBAL_FLAGS],
        "formats": list(FORMATS),
        "format_env": FORMAT_ENV,
        "exit_codes": {"pass": 0, "check_failure": 1, "usage_error": 2},
    }


def _parse_surface(text: str, parser: argparse.ArgumentParser) -> SurfaceType:
    try:
        g, r = (int(x) for x in text.split(","))
        return SurfaceType(g, r)
    except ValueError as exc:
        parser.error(f"bad surface {text!r}: {exc}")


def _check_degree_cap(value: int, parser: argparse.ArgumentParser, low: int = 1) -> int:
    if not low <= value <= complexes.MAX_DEGREE_CAP:
        parser.error(f"degree cap must be in [{low}, {complexes.MAX_DEGREE_CAP}]")
    return value


def _oracle_block(task: tuple[int, int]) -> tuple[int, list[dict]]:
    """The number of words of one degree and side checked, and the mismatches."""
    degree, side = task
    checked = 0
    rows = []
    for w in all_perms(degree):
        checked += 1
        # each word is counted once: the uncached count fills no cache
        formula = boundary_count(w, side)
        trace = oracle_boundary_count(w, side)
        if formula != trace:
            rows.append(
                {
                    "degree": degree,
                    "side": side,
                    "perm": ",".join(map(str, w)),
                    "formula": formula,
                    "trace": trace,
                }
            )
    return checked, rows


def _pmap(fn, tasks: list, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # a worker beyond one per task would only start and exit
    with get_context("fork").Pool(min(threads, len(tasks))) as pool:
        # one task per chunk: the default chunksize can put the costliest
        # tasks (the last ones) in a single chunk, on a single worker
        return pool.map(fn, tasks, chunksize=1)


def run_invariants(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    try:
        a = ArcClass(tuple(int(x) for x in args.perm.split(",")), args.side)
    except ValueError as exc:
        parser.error(str(exc))
    formula = boundary_of_neighborhood(a)
    trace = oracle_boundary_count(a.perm, a.side)
    row = {
        "perm": ",".join(map(str, a.perm)),
        "side": args.side,
        "neighborhood_boundary": formula,
        "trace_count": trace,
        "simplex_genus": simplex_genus(a),
    }
    ok = formula == trace
    if args.ambient is not None:
        ambient = _parse_surface(args.ambient, parser)
        try:
            label = cut_surface(ambient, a)
        except ValueError as exc:
            parser.error(str(exc))
        row["stabilizer_g"] = label.g
        row["stabilizer_r"] = label.r
        columns = ("perm", "side", "neighborhood_boundary", "trace_count", "simplex_genus", "stabilizer_g", "stabilizer_r")
    else:
        columns = ("perm", "side", "neighborhood_boundary", "trace_count", "simplex_genus")
    return {"rows": [row]}, columns, ok


def run_oracle_diff(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    cap = _check_degree_cap(args.max_degree, parser)
    tasks = [(d, side) for d in range(1, cap + 1) for side in (1, 2)]
    blocks = _pmap(_oracle_block, tasks, args.threads)
    rows = [row for _, block in blocks for row in block]
    checked = sum(n for n, _ in blocks)
    return {"rows": rows, "checked": checked}, ("degree", "side", "perm", "formula", "trace"), not rows


def run_homology(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    if args.genus < 2:
        parser.error("quotient genus must be >= 2")
    if args.max_degree is not None:
        # the report covers degrees 2 .. max_degree-1
        _check_degree_cap(args.max_degree, parser, 3)
    rows = complexes.exactness_report(args.genus, args.side, args.max_degree)
    for r in rows:
        r["torsion"] = ";".join(map(str, r["torsion"])) or "-"
    ok = all(r["trivial"] for r in rows if r["guaranteed"])
    return {"rows": rows}, ("degree", "betti", "torsion", "trivial", "guaranteed"), ok


def run_homotopy(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    cap = _check_degree_cap(args.max_degree, parser)
    if (args.genus is None) != (args.side is None):
        parser.error("--genus and --side go together")
    if args.genus is not None:
        # a genus below 2, or a top degree g+side-1 over the cap
        try:
            complexes._quotient_lift_top(args.genus, args.side)
        except ValueError as exc:
            parser.error(str(exc))
    if args.samples < 0:
        parser.error("--samples must be >= 0")
    if args.sample_degree and not args.samples:
        parser.error("--sample-degree needs a positive --samples")
    sample_degrees = args.sample_degree or ([7, 8] if args.samples else [])
    for d in sample_degrees:
        _check_degree_cap(d, parser, 2)  # the identity starts at degree 2
    rows = []
    rep = complexes.verify_homotopy(cap)
    rows.append({"check": "full-complex", "detail": f"degrees 2..{cap}", "checked": rep.checked, "failures": len(rep.failures), "ok": rep.ok})
    if args.genus is not None:
        qrep = complexes.verify_quotient_homotopy(args.genus, args.side)
        rows.append({"check": "quotient-lift", "detail": f"g={args.genus} side={args.side}", "checked": qrep.checked, "failures": len(qrep.failures), "ok": qrep.ok})
    for d in sample_degrees:
        srep = complexes.verify_homotopy_sampled(d, args.samples, args.seed)
        rows.append({"check": "sampled", "detail": f"degree {d}", "checked": srep.checked, "failures": len(srep.failures), "ok": srep.ok})
    return {"rows": rows}, ("check", "detail", "checked", "failures", "ok"), all(r["ok"] for r in rows)


def run_e1(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    ambient = _parse_surface(args.ambient, parser)
    # a first differential needs a column p >= 2 to start from
    _check_degree_cap(args.max_p, parser, 2 if args.with_d1 else 1)
    try:
        page = e1page.e1_skeleton(ambient, args.side, args.max_p)
    except ValueError as exc:
        parser.error(str(exc))
    rows = []
    for p in range(1, page.max_p + 1):
        for s in page.column(p):
            rows.append(
                {
                    "p": p,
                    "perm": ",".join(map(str, s.perm)),
                    "genus": s.genus,
                    "stabilizer_g": s.stabilizer.g,
                    "stabilizer_r": s.stabilizer.r,
                }
            )
    extra = {"rows": rows, "vanishing_bound": page.vanishing_bound}
    ok = True
    if args.with_d1:
        matrices = {}
        for p in range(2, page.max_p + 1):
            m = e1page.d1_matrix(page, p)
            ok = ok and e1page.d1_follows_cancellation(page, p, m)
            matrices[str(p)] = m.to_triples()
        extra["d1"] = matrices
    return extra, ("p", "perm", "genus", "stabilizer_g", "stabilizer_r"), ok


def run_ledger(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    if args.g_max < 1 or args.k_max < 1:
        parser.error("grid bounds must be >= 1")
    rows = ledger.main_theorem_ledger(args.g_max, args.k_max)
    total, ok = len(rows), all(o.holds for o in rows)
    if args.failures_only:
        rows = [o for o in rows if not o.holds]
    # each obligation is replaced by its row in place, so the obligations
    # and their rows are never both held in full
    for i, o in enumerate(rows):
        rows[i] = {
            "claim": o.claim,
            "params": ";".join(f"{k}={v}" for k, v in sorted(o.params.items())),
            "inequality": o.inequality,
            "holds": o.holds,
        }
    return {"rows": rows, "total": total}, ("claim", "params", "inequality", "holds"), ok


def run_exceptions(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    ok, computed = ledger.check_orbit_set_exceptions(args.case)
    return {"rows": [t.to_json() for t in computed]}, ("case", "l", "m", "n", "g", "k"), ok


RUNNERS = {
    "invariants": run_invariants,
    "oracle-diff": run_oracle_diff,
    "homology": run_homology,
    "homotopy": run_homotopy,
    "e1": run_e1,
    "ledger": run_ledger,
    "exceptions": run_exceptions,
}


def _json_blocks(report: dict) -> Iterator[str]:
    """The text of ``json.dumps(report, sort_keys=True, indent=2)`` and a newline, in blocks."""
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
    while block := "".join(islice(chunks, JSON_BLOCK)):
        yield block
    yield "\n"


def _render(report: dict, columns: tuple[str, ...], fmt: str) -> Iterator[str]:
    """The report's text: JSON in blocks, CSV and table one line at a time."""
    if fmt == "json":
        yield from _json_blocks(report)
        return
    rows = report["rows"]
    if fmt == "csv":
        # imported here: at module level it adds to the peak RSS of every
        # command, and most reports are JSON
        import csv

        # writerow returns what its file's write returns: here, the line
        line = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
        yield line.writerow(columns)
        for r in rows:
            yield line.writerow([r.get(c, "") for c in columns])
        return
    widths = [max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c) for c in columns]
    yield "  ".join(c.ljust(w) for c, w in zip(columns, widths)) + "\n"
    for r in rows:
        yield "  ".join(str(r.get(c, "")).ljust(w) for c, w in zip(columns, widths)) + "\n"
    summary = {k: v for k, v in report.items() if k not in ("rows", "d1", "command", "ok")}
    extras = "  ".join(f"{k}={v}" for k, v in sorted(summary.items()))
    yield f"ok: {report['ok']}" + (f"  ({extras})" if extras else "") + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.describe:
        sys.stdout.writelines(_json_blocks(describe()))
        return 0
    if args.command is None:
        parser.error("a subcommand is required (or --describe)")
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    fmt = args.format or os.environ.get(FORMAT_ENV) or "table"
    if fmt not in FORMATS:
        parser.error(f"bad format {fmt!r} (from ${FORMAT_ENV}?)")
    report, columns, ok = RUNNERS[args.command](args, parser)
    report["command"] = args.command
    report["ok"] = ok
    blocks = _render(report, columns, fmt)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.writelines(blocks)
        except OSError as exc:
            parser.error(f"cannot write --output {args.output!r}: {exc.strerror}")
    else:
        sys.stdout.writelines(blocks)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
