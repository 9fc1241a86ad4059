"""
Command-line front end: every verification suite as a subcommand with
machine-readable output.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.  Each
command is declared once, with its help, runner and flags, in ``COMMANDS``.
Each flag states its domain once, there or in ``GLOBAL_FLAGS``, and argparse
checks it; a runner checks only the rules that join two flags, through its
command's own parser, so every usage error of a command prints that
command's usage.  Output is deterministic for a fixed configuration.
A report's rows may be a list or a ``_Rows``, which ``e1`` and ``ledger``
use to make theirs afresh on each read, so neither holds its rows.
Reports are written as they are rendered: JSON by one pass of the stdlib
encoder over the whole report, rows included, a block of its chunks at a
time; CSV a line at a time; and a table in two reads of its rows, one for
the column widths and one for the lines.  So no report holds its rows or
its whole text.  Reports and ``--describe`` go to stdout through one write,
and a reader that closes the pipe early ends either quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from itertools import islice
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator

from . import complexes, e1page, ledger
from .perms import all_perms
from .ribbon import oracle_boundary_count
from .surfaces import (
    ArcClass,
    SurfaceType,
    boundary_count,
    boundary_of_neighborhood,
    cut_surface,
    genus_counts,
    simplex_genus,
)

FORMATS = ("json", "csv", "table")
FORMAT_ENV = "ARCCALC_FORMAT"

# JSON encoder chunks joined per write: one write per chunk is slow, and a
# block is held whole while it is joined and written
JSON_BLOCK = 512


class _Rows(list):
    """
    Report rows that ``make()`` makes afresh on each read, so none are held.
    A ``list`` to the JSON encoder, whose pure-Python path (``iterencode``'s)
    tests ``not rows`` and reads them by ``for``.  The list itself is empty,
    so ``len`` raises rather than read 0.
    """

    __len__ = None

    def __init__(self, make: Callable[[], Iterator[dict]]) -> None:
        self.make = make

    def __iter__(self) -> Iterator[dict]:
        return self.make()

    def __bool__(self) -> bool:
        return next(self.make(), None) is not None


def _at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    # argparse names the type in its error for text like 'x': invalid integer value
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"invalid value: {value} (must be >= {low})")
        return value

    return integer


def _surface(text: str) -> SurfaceType:
    """An argparse type: an ambient surface written ``g,r``."""
    try:
        g, r = (int(x) for x in text.split(","))
        return SurfaceType(g, r)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad surface {text!r}: {exc}") from None


GLOBAL_FLAGS: list[tuple[str, dict]] = [
    ("--format", {"choices": FORMATS, "default": None, "help": f"output format (default from ${FORMAT_ENV} or table)"}),
    ("--output", {"default": None, "help": "write the report to this path instead of stdout"}),
    ("--threads", {"type": _at_least(1), "default": 1, "help": "worker count (>= 1); only oracle-diff reads it, and every other command runs serially"}),
    ("--seed", {"type": int, "default": 0, "help": "seed for sampled checks"}),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arccalc",
        description="combinatorial arc-system calculus: invariants, homology, stability bookkeeping",
    )
    parser.add_argument("--describe", action="store_true", help="print a JSON description of all subcommands and exit")
    sub = parser.add_subparsers(dest="command")
    for name, (help_, run, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in flags + GLOBAL_FLAGS:
            p.add_argument(flag, **kwargs)
        # the command's own parser, so its usage errors print its usage,
        # and its runner, which main calls
        p.set_defaults(parser=p, run=run)
    return parser


def describe() -> dict:
    return {
        "commands": {
            name: {
                "help": help_,
                "flags": [flag for flag, _ in flags] + [flag for flag, _ in GLOBAL_FLAGS],
            }
            for name, (help_, _, flags) in sorted(COMMANDS.items())
        },
        "global_flags": ["--describe"] + [flag for flag, _ in GLOBAL_FLAGS],
        "formats": list(FORMATS),
        "format_env": FORMAT_ENV,
        "exit_codes": {"pass": 0, "check_failure": 1, "usage_error": 2},
    }


_ORACLE_COLUMNS = ("degree", "side", "perm", "formula", "trace")


def _oracle_block(task: tuple[int, int]) -> tuple[int, list[dict]]:
    """
    The number of words of one degree and side checked, and the mismatches:
    each word whose two counts differ, then each simplex genus whose tally of
    traced words is not its ``genus_counts``, as a missed or repeated word makes.
    """
    degree, side = task
    checked = 0
    rows = []
    tally = Counter()
    for w in all_perms(degree):
        checked += 1
        # each word is counted once: the uncached count fills no cache
        formula = boundary_count(w, side)
        trace = oracle_boundary_count(w, side)
        tally[(degree + 2 - trace) // 2] += 1
        if formula != trace:
            rows.append(dict(zip(_ORACLE_COLUMNS, (degree, side, ",".join(map(str, w)), formula, trace))))
    closed = dict(enumerate(genus_counts(degree, side)))
    for s in sorted(closed.keys() | tally.keys()):
        if tally[s] != closed.get(s, 0):
            rows.append(dict(zip(_ORACLE_COLUMNS, (degree, side, f"genus={s}", closed.get(s, 0), tally[s]))))
    return checked, rows


def _pmap(fn, tasks: list, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here: at module level it adds to the start-up time and peak
    # RSS of every command, and only oracle-diff runs on workers
    import multiprocessing

    # a worker beyond one per task would only start and exit
    with multiprocessing.get_context("fork").Pool(min(threads, len(tasks))) as pool:
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
    columns = ("perm", "side", "neighborhood_boundary", "trace_count", "simplex_genus")
    row = dict(zip(columns, (",".join(map(str, a.perm)), args.side, formula, trace, simplex_genus(a))))
    if args.ambient is not None:
        try:
            label = cut_surface(args.ambient, a)
        except ValueError as exc:
            parser.error(str(exc))
        row["stabilizer_g"], row["stabilizer_r"] = label.g, label.r
        columns += ("stabilizer_g", "stabilizer_r")
    return {"rows": [row]}, columns, formula == trace


def run_oracle_diff(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    tasks = [(d, side) for d in range(1, args.max_degree + 1) for side in (1, 2)]
    blocks = _pmap(_oracle_block, tasks, args.threads)
    rows = [row for _, block in blocks for row in block]
    checked = sum(n for n, _ in blocks)
    return {"rows": rows, "checked": checked}, _ORACLE_COLUMNS, not rows


def run_homology(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    rows = complexes.exactness_report(args.genus, args.side, args.max_degree)
    for r in rows:
        r["torsion"] = ";".join(map(str, r["torsion"])) or "-"
    ok = all(r["trivial"] for r in rows if r["guaranteed"])
    return {"rows": rows}, ("degree", "betti", "torsion", "trivial", "guaranteed"), ok


def run_homotopy(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    if (args.genus is None) != (args.side is None):
        parser.error("--genus and --side go together")
    if args.genus is not None:
        # a top degree g+side-1 over the cap
        try:
            complexes._quotient_lift_top(args.genus, args.side)
        except ValueError as exc:
            parser.error(str(exc))
    if args.sample_degree and not args.samples:
        parser.error("--sample-degree needs a positive --samples")
    sample_degrees = args.sample_degree or ([7, 8] if args.samples else [])
    columns = ("check", "detail", "checked", "failures", "ok")

    def row(check: str, detail: str, rep) -> dict:
        return dict(zip(columns, (check, detail, rep.checked, len(rep.failures), rep.ok)))

    rows = [row("full-complex", f"degrees 2..{args.max_degree}", complexes.verify_homotopy(args.max_degree))]
    if args.genus is not None:
        rows.append(row("quotient-lift", f"g={args.genus} side={args.side}", complexes.verify_quotient_homotopy(args.genus, args.side)))
    for d in sample_degrees:
        rows.append(row("sampled", f"degree {d}", complexes.verify_homotopy_sampled(d, args.samples, args.seed)))
    return {"rows": rows}, columns, all(r["ok"] for r in rows)


def run_e1(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    # a first differential needs a column p >= 2 to start from
    if args.with_d1 and args.max_p < 2:
        parser.error("--with-d1 needs --max-p >= 2")
    try:
        page = e1page.e1_skeleton(args.ambient, args.side, args.max_p)
    except ValueError as exc:
        parser.error(str(exc))
    extra = {"vanishing_bound": page.vanishing_bound}
    ok = True
    if args.with_d1:
        # one matrix at a time, built, checked and serialised before output
        # starts, so a matrix is never held beside another
        matrices = {}
        for p in range(2, page.max_p + 1):
            m = e1page.d1_matrix(page, p)
            ok = ok and e1page.d1_follows_cancellation(page, p, m)
            matrices[str(p)] = m.to_triples()
            del m
        extra["d1"] = matrices

    def rows() -> Iterator[dict]:
        for p in range(1, page.max_p + 1):
            for s in page.column(p):
                yield {
                    "p": p,
                    "perm": ",".join(map(str, s.word)),
                    "genus": s.genus,
                    "stabilizer_g": s.stabilizer.g,
                    "stabilizer_r": s.stabilizer.r,
                }

    extra["rows"] = _Rows(rows)
    return extra, ("p", "perm", "genus", "stabilizer_g", "stabilizer_r"), ok


def run_ledger(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    obligations = ledger.main_theorem_ledger(args.g_max, args.k_max)
    ok = all(o.holds for o in obligations)

    # each row is made from its obligation as the report is written, so the
    # obligations are held but their rows never are
    def rows() -> Iterator[dict]:
        for o in obligations:
            if not (args.failures_only and o.holds):
                yield {
                    "claim": o.claim,
                    "params": ";".join(f"{k}={v}" for k, v in sorted(o.params.items())),
                    "inequality": o.inequality,
                    "holds": o.holds,
                }

    return {"rows": _Rows(rows), "total": len(obligations)}, ("claim", "params", "inequality", "holds"), ok


def run_exceptions(args, parser) -> tuple[dict, tuple[str, ...], bool]:
    ok, computed = ledger.check_orbit_set_exceptions(args.case)
    columns = ("case", "l", "m", "n", "g", "k")
    return {"rows": [dict(zip(columns, (t.case, *t.lm, t.n, t.g, t.k))) for t in computed]}, columns, ok


# command -> (help, runner, flags), in the order `arccalc --help` lists them:
# the one registry that builds the parser and answers --describe
COMMANDS: dict[str, tuple[str, Callable, list[tuple[str, dict]]]] = {
    "invariants": ("thickening invariants and stabilizer label of one arc class", run_invariants, [
        ("--perm", {"required": True, "help": "comma-separated word, e.g. 1,2,0"}),
        ("--side", {"type": int, "choices": (1, 2), "required": True, "help": "1 or 2"}),
        ("--ambient", {"type": _surface, "default": None, "help": "ambient surface as g,r"}),
    ]),
    "oracle-diff": ("closed-form boundary count vs ribbon trace, exhaustively", run_oracle_diff, [
        ("--max-degree", {"type": int, "choices": range(1, complexes.MAX_DEGREE_CAP + 1), "default": 6, "help": "exhaustive degree cap"}),
    ]),
    "homology": ("exactness report of the realizability quotient complex", run_homology, [
        ("--genus", {"type": _at_least(2), "required": True, "help": "quotient genus (>= 2)"}),
        ("--side", {"type": int, "choices": (1, 2), "required": True, "help": "1 or 2"}),
        ("--max-degree", {"type": int, "choices": range(3, complexes.MAX_DEGREE_CAP + 1), "default": None, "help": "degree cap; the report covers degrees 2 .. cap-1"}),
    ]),
    "homotopy": ("contraction identity on the full and quotient complexes", run_homotopy, [
        ("--max-degree", {"type": int, "choices": range(1, complexes.MAX_DEGREE_CAP + 1), "default": 6, "help": "exhaustive degree cap"}),
        ("--genus", {"type": _at_least(2), "default": None, "help": "also check the quotient lift at this genus (>= 2)"}),
        ("--side", {"type": int, "choices": (1, 2), "default": None, "help": "side for the quotient lift"}),
        ("--samples", {"type": _at_least(0), "default": 0, "help": "random words per sampled degree (>= 0)"}),
        ("--sample-degree", {"type": int, "choices": range(2, complexes.MAX_DEGREE_CAP + 1), "action": "append", "default": None, "help": "degree to sample, from 2 where the identity starts (repeatable)"}),
    ]),
    "e1": ("first-page summand tables and first differentials", run_e1, [
        ("--ambient", {"type": _surface, "required": True, "help": "ambient surface as g,r"}),
        ("--side", {"type": int, "choices": (1, 2), "required": True, "help": "1 or 2"}),
        ("--max-p", {"type": int, "choices": range(1, complexes.MAX_DEGREE_CAP + 1), "default": 4, "help": "last page column"}),
        ("--with-d1", {"action": "store_true", "help": "emit first-differential matrices and check them"}),
    ]),
    "ledger": ("inequality obligations of the stability induction", run_ledger, [
        ("--g-max", {"type": _at_least(1), "default": 50, "help": "genus grid bound (>= 1)"}),
        ("--k-max", {"type": _at_least(1), "default": 20, "help": "degree grid bound (>= 1)"}),
        ("--failures-only", {"action": "store_true", "help": "emit only violated obligations"}),
    ]),
    "exceptions": ("brute-force orbit-set exception lists", run_exceptions, [
        ("--case", {"required": True, "choices": ledger.EXCEPTION_CASES, "help": "exception list to re-derive"}),
    ]),
}


def _json_blocks(report: dict) -> Iterator[str]:
    """
    The text of ``json.dumps(report, sort_keys=True, indent=2)`` and a newline,
    in blocks of ``JSON_BLOCK`` encoder chunks, so the whole text is never held.
    """
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
    while block := "".join(islice(chunks, JSON_BLOCK)):
        yield block
    yield "\n"


def _render(report: dict, columns: tuple[str, ...], fmt: str) -> Iterator[str]:
    """
    The report's text: JSON in blocks, CSV and table one line at a time.  A
    table reads its rows twice, once for the column widths and once for the
    lines.
    """
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
    widths = [len(c) for c in columns]
    for r in rows:
        widths = [max(w, len(str(r.get(c, "")))) for c, w in zip(columns, widths)]
    yield "  ".join(c.ljust(w) for c, w in zip(columns, widths)) + "\n"
    for r in rows:
        yield "  ".join(str(r.get(c, "")).ljust(w) for c, w in zip(columns, widths)) + "\n"
    summary = {k: v for k, v in report.items() if k not in ("rows", "d1", "command", "ok")}
    extras = "  ".join(f"{k}={v}" for k, v in sorted(summary.items()))
    yield f"ok: {report['ok']}" + (f"  ({extras})" if extras else "") + "\n"


def _write(blocks: Iterable[str]) -> None:
    """Write text to stdout; a reader that closes the pipe early ends it quietly."""
    try:
        sys.stdout.writelines(blocks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`): stdout goes to the null device,
        # so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.describe:
        _write(_json_blocks(describe()))
        return 0
    if args.command is None:
        parser.error("a subcommand is required (or --describe)")
    parser = args.parser
    fmt = args.format or os.environ.get(FORMAT_ENV) or "table"
    if fmt not in FORMATS:
        parser.error(f"bad format {fmt!r} (from ${FORMAT_ENV}?)")
    report, columns, ok = args.run(args, parser)
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
        _write(blocks)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
