import csv
import gc
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from arccalc import cli

# under python -O the CLI runs under -O too
CLI = [sys.executable, *["-O"] * sys.flags.optimize, "-m", "arccalc.cli"]


def run(*args, env=None):
    full_env = dict(os.environ)
    full_env.pop("ARCCALC_FORMAT", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=full_env
    )


class TestExitCodes:
    def test_pass_is_zero(self):
        assert run("exceptions", "--case", "inj-s11").returncode == 0

    def test_usage_error_is_two(self):
        assert run("exceptions").returncode == 2
        assert run("nonsense").returncode == 2
        assert run().returncode == 2
        assert run("invariants", "--perm", "1,1", "--side", "1").returncode == 2
        assert run("homology", "--genus", "1", "--side", "1").returncode == 2

    def test_check_failure_is_one(self, monkeypatch, capsys):
        # every real suite passes by design, so exercise the failure path by
        # stubbing a runner in-process
        from arccalc import cli

        def stub(args, parser):
            return {"rows": []}, ("case",), False

        help_, _, flags = cli.COMMANDS["exceptions"]
        monkeypatch.setitem(cli.COMMANDS, "exceptions", (help_, stub, flags))
        assert cli.main(["exceptions", "--case", "inj-s11"]) == 1

    @pytest.mark.parametrize("failures_only", [False, True])
    def test_ledger_failure_rows_and_total(self, monkeypatch, capsys, failures_only):
        from arccalc import cli, ledger

        obligations = [
            ledger.Obligation("a", {"k": 1, "g": 2}, "3 >= 2", True),
            ledger.Obligation("b", {"g": 0}, "0 >= 1", False),
        ]
        monkeypatch.setattr(ledger, "main_theorem_ledger", lambda g_max, k_max: list(obligations))
        argv = ["ledger", "--format", "json"] + ["--failures-only"] * failures_only
        assert cli.main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 2
        rows = [{"claim": "b", "params": "g=0", "inequality": "0 >= 1", "holds": False}]
        if not failures_only:
            rows.insert(0, {"claim": "a", "params": "g=2;k=1", "inequality": "3 >= 2", "holds": True})
        assert report["rows"] == rows

    def test_ledger_failures_only_with_no_failure(self, capsys):
        # a real ledger, not a stub: its lazy rows reach each renderer empty
        from arccalc import cli

        argv = ["ledger", "--g-max", "1", "--k-max", "1", "--failures-only", "--format"]
        assert cli.main(argv + ["json"]) == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        assert report["rows"] == [] and report["total"] == 2 and report["ok"]
        assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert cli.main(argv + ["csv"]) == 0
        assert capsys.readouterr().out == "claim,params,inequality,holds\n"
        assert cli.main(argv + ["table"]) == 0
        assert capsys.readouterr().out == "claim  params  inequality  holds\nok: True  (total=2)\n"

    def test_homotopy_checking_nothing_fails(self):
        res = run("homotopy", "--max-degree", "1", "--format", "json")
        assert res.returncode == 1
        row = json.loads(res.stdout)["rows"][0]
        assert row["checked"] == 0 and row["ok"] is False

    def test_homotopy_sampling_needs_positive_samples(self):
        assert run("homotopy", "--max-degree", "2", "--sample-degree", "7").returncode == 2
        assert run("homotopy", "--max-degree", "2", "--samples", "-5").returncode == 2

    def test_homotopy_sample_degree_below_two_is_usage_error(self):
        res = run("homotopy", "--max-degree", "2", "--samples", "3", "--sample-degree", "1")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr

    def test_homotopy_validates_before_checking(self, monkeypatch):
        from arccalc import cli, complexes

        def no_check(max_degree):
            raise AssertionError("a check ran before the arguments were validated")

        monkeypatch.setattr(complexes, "verify_homotopy", no_check)
        for extra in (
            ["--samples", "3", "--sample-degree", "9"],
            ["--genus", "1", "--side", "1"],
            ["--genus", "8", "--side", "2"],  # quotient lift top degree 9
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(["homotopy", "--max-degree", "8", *extra])
            assert exc.value.code == 2, extra

    @pytest.mark.parametrize("optimize", [[], ["-O"]])
    def test_quotient_lift_over_the_degree_cap_is_usage_error(self, optimize):
        # genus 8 on side 2 would lift all of S_9; the check raises, not asserts
        res = subprocess.run(
            [sys.executable, *optimize, "-m", "arccalc.cli", "homotopy", "--genus", "8", "--side", "2"],
            capture_output=True, text=True,
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr and "over 8" in res.stderr

    def test_homology_reporting_no_degree_is_usage_error(self):
        # the report covers degrees 2 .. max-degree - 1
        for cap in ("1", "2"):
            assert run("homology", "--genus", "2", "--side", "1", "--max-degree", cap).returncode == 2

    def test_e1_d1_without_a_column_to_check_is_usage_error(self):
        assert run("e1", "--ambient", "3,2", "--side", "1", "--max-p", "1", "--with-d1").returncode == 2

    def test_e1_max_p_is_degree_capped(self):
        assert run("e1", "--ambient", "4,2", "--side", "2", "--max-p", "10").returncode == 2

    def test_unwritable_output_is_usage_error(self, tmp_path):
        res = run(
            "exceptions", "--case", "inj-s11",
            "--output", str(tmp_path / "missing" / "x.json"),
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        errors = [line for line in res.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and "cannot write --output" in errors[0]

    @pytest.mark.parametrize(
        "args, reads",
        [
            pytest.param(["ledger", "--g-max", "20", "--k-max", "10", "--format", "csv"], 1, id="csv"),
            pytest.param(["ledger", "--g-max", "20", "--k-max", "10", "--format", "json"], 1, id="json"),
            # the description fits in the pipe's buffer, so the reader has
            # closed its end before the CLI starts, as `| true` can
            pytest.param(["--describe"], 0, id="describe"),
        ],
    )
    def test_a_closed_pipe_ends_the_report_quietly(self, args, reads):
        # the reader takes one line and closes its end, as `| head -n 1` does;
        # the report is larger than the pipe and stdout buffers together
        env = {k: v for k, v in os.environ.items() if k != "ARCCALC_FORMAT"}
        read_end, write_end = os.pipe()
        if not reads:
            os.close(read_end)
        proc = subprocess.Popen(
            CLI + args, stdout=write_end, stderr=subprocess.PIPE, text=True, env=env
        )
        os.close(write_end)
        if reads:
            with os.fdopen(read_end) as out:
                assert out.readline()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert "Traceback" not in err and err == ""

    def test_describe_exits_zero(self):
        assert run("--describe").returncode == 0


# a valid invocation of each command; a test appends one flag to it
VALID = {
    "invariants": ["--perm", "1,0", "--side", "1"],
    "oracle-diff": [],
    "homology": ["--genus", "2", "--side", "1"],
    "homotopy": [],
    "e1": ["--ambient", "3,2", "--side", "1"],
    "ledger": [],
    "exceptions": ["--case", "inj-s11"],
}

# integer flags whose every value is valid
UNBOUNDED = {"--seed"}


def _integer_domains():
    """(command, flag, its bound values, the values just past them) per bounded integer flag."""
    for command, (_, _, flags) in cli.COMMANDS.items():
        for flag, kwargs in flags + cli.GLOBAL_FLAGS:
            kind = kwargs.get("type")
            if kind is int and "choices" in kwargs:
                low, high = min(kwargs["choices"]), max(kwargs["choices"])
                yield command, flag, (low, high), (low - 1, high + 1)
            elif getattr(kind, "__name__", None) == "integer":
                # the help states the lower bound that the type enforces
                low = int(re.search(r"\(>= (-?\d+)\)", kwargs["help"]).group(1))
                yield command, flag, (low,), (low - 1,)


class Ran(Exception):
    """Raised by a patched runner: the arguments were accepted."""


class TestFlagDomains:
    def test_every_integer_flag_declares_its_domain(self):
        for command, (_, _, flags) in cli.COMMANDS.items():
            for flag, kwargs in flags + cli.GLOBAL_FLAGS:
                if kwargs.get("type") is int and "choices" not in kwargs:
                    assert flag in UNBOUNDED, (command, flag)

    @pytest.mark.parametrize(
        "command, flag, bounds, past",
        [pytest.param(*case, id=f"{case[0]} {case[1]}") for case in _integer_domains()],
    )
    def test_a_value_past_a_bound_is_a_usage_error(
        self, monkeypatch, capsys, command, flag, bounds, past
    ):
        def runner(args, parser):
            raise Ran(args)

        monkeypatch.delenv("ARCCALC_FORMAT", raising=False)
        help_, _, flags = cli.COMMANDS[command]
        monkeypatch.setitem(cli.COMMANDS, command, (help_, runner, flags))
        for value in past:
            with pytest.raises(SystemExit) as exc:
                cli.main([command, *VALID[command], flag, str(value)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"usage: arccalc {command} " in err
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and f"error: argument {flag}: " in errors[0], err
        for value in bounds:
            with pytest.raises(Ran) as ran:
                cli.main([command, *VALID[command], flag, str(value)])
            parsed = getattr(ran.value.args[0], flag[2:].replace("-", "_"))
            assert parsed in (value, [value]), (flag, parsed)

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in [
                (["homotopy", "--genus", "3"], "--genus and --side go together"),
                (["homotopy", "--sample-degree", "7"], "--sample-degree needs a positive --samples"),
                (
                    ["e1", "--ambient", "3,2", "--side", "1", "--max-p", "1", "--with-d1"],
                    "--with-d1 needs --max-p >= 2",
                ),
            ]
        ],
    )
    def test_a_rule_joining_two_flags_prints_the_command_usage(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: arccalc {argv[0]} ")
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"arccalc {argv[0]}: error: {message}"]

    @pytest.mark.parametrize("command", ["invariants", "e1"])
    def test_a_bad_surface_names_the_flag(self, capsys, command):
        argv = [command, *VALID[command], "--ambient", "2,-1"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"arccalc {command}: error: argument --ambient: bad surface '2,-1': invalid surface type (2, -1)"]


class TestInvariants:
    def test_with_ambient(self):
        res = run(
            "invariants", "--perm", "1,2,0", "--side", "2", "--ambient", "5,3",
            "--format", "json",
        )
        assert res.returncode == 0
        data = json.loads(res.stdout)
        row = data["rows"][0]
        assert row["simplex_genus"] == 0
        assert row["neighborhood_boundary"] == 5
        assert (row["stabilizer_g"], row["stabilizer_r"]) == (3, 4)

    def test_formula_vs_trace_shown(self):
        res = run("invariants", "--perm", "0,2,1", "--side", "1", "--format", "json")
        row = json.loads(res.stdout)["rows"][0]
        assert row["neighborhood_boundary"] == row["trace_count"] == 3

    def test_unrealizable_ambient_is_usage_error(self):
        res = run("invariants", "--perm", "0,1,2", "--side", "1", "--ambient", "1,1")
        assert res.returncode == 2

    @pytest.mark.parametrize("side, limit", [(1, 255), (2, 256)])
    def test_byte_word_degree_limit(self, side, limit):
        # side 1 reads the word through hat, one degree up; a byte word
        # stops at degree 256
        def word(n):
            return ",".join(map(str, [*range(1, n), 0]))

        res = run("invariants", "--perm", word(limit + 1), "--side", str(side))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        errors = [line for line in res.stderr.splitlines() if "error:" in line]
        assert errors == [f"arccalc invariants: error: degree {limit + 1} is over {limit}, the limit on side {side}"]
        res = run("invariants", "--perm", word(limit), "--side", str(side), "--format", "json")
        assert res.returncode == 0, res.stderr
        row = json.loads(res.stdout)["rows"][0]
        assert row["neighborhood_boundary"] == row["trace_count"]


def _pid_after_pause(task):
    # the last two tasks are the slow ones, as the top degree is in oracle-diff
    if task >= 14:
        time.sleep(0.3)
    return os.getpid()


class TestSuites:
    def test_oracle_diff(self):
        res = run("oracle-diff", "--max-degree", "5", "--format", "json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["ok"] and data["rows"] == []
        assert data["checked"] == 2 * (1 + 2 + 6 + 24 + 120)

    def test_oracle_diff_reports_a_mismatch(self, monkeypatch, capsys):
        # _oracle_block reads surfaces.boundary_count when it runs
        from arccalc import cli, surfaces

        count = surfaces.boundary_count
        monkeypatch.setattr(
            surfaces, "boundary_count", lambda w, side: count(w, side) + ((w, side) == ((1, 2, 0), 2))
        )
        assert cli.main(["oracle-diff", "--max-degree", "3", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["rows"] == [{"degree": 3, "side": 2, "perm": "1,2,0", "formula": 6, "trace": 5}]
        assert data["checked"] == 2 * (1 + 2 + 6)
        assert not data["ok"]
        # the CSV mismatch row has the header's width: its word field is quoted
        assert cli.main(["oracle-diff", "--max-degree", "3", "--format", "csv"]) == 1
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows == [["degree", "side", "perm", "formula", "trace"], ["3", "2", "1,2,0", "6", "5"]]

    @pytest.mark.parametrize("change", ["drop", "repeat"])
    def test_oracle_genus_tally_catches_a_missing_or_repeated_word(self, monkeypatch, capsys, change):
        # both counts agree on every word enumerated, so only the tally
        # against genus_counts sees that the enumeration is wrong; _oracle_block
        # reads perms.all_perms when it runs
        from itertools import chain, islice

        from arccalc import cli, perms
        from arccalc.surfaces import genus_counts

        words = perms.all_perms
        if change == "drop":
            monkeypatch.setattr(perms, "all_perms", lambda d: islice(words(d), 1, None))
        else:
            monkeypatch.setattr(perms, "all_perms", lambda d: chain(words(d), islice(words(d), 1)))
        checked, rows = cli._oracle_block((4, 1))
        # the identity word, the first enumerated, has genus 0
        closed = genus_counts(4, 1)[0]
        assert checked == 24 + (-1 if change == "drop" else 1)
        assert rows == [{"degree": 4, "side": 1, "perm": "genus=0", "formula": closed, "trace": checked - 24 + closed}]
        assert cli.main(["oracle-diff", "--max-degree", "3", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert not data["ok"] and {r["perm"] for r in data["rows"]} == {"genus=0"}
        assert {(r["degree"], r["side"]) for r in data["rows"]} == {(d, s) for d in (1, 2, 3) for s in (1, 2)}

    def test_oracle_block_fills_no_cache(self):
        from arccalc.cli import _oracle_block
        from arccalc.surfaces import _neighborhood_boundary

        _neighborhood_boundary.cache_clear()
        assert _oracle_block((6, 1)) == (720, [])
        assert _neighborhood_boundary.cache_info().currsize == 0

    def test_oracle_block_checks_no_word(self, monkeypatch):
        # the words of all_perms are permutations: no ArcClass checks them
        from arccalc import surfaces
        from arccalc.cli import _oracle_block

        def no_check(word):
            raise AssertionError(f"the sweep checked {word!r}")

        monkeypatch.setattr(surfaces, "as_perm", no_check)
        assert _oracle_block((6, 2)) == (720, [])

    def test_oracle_diff_threads_match_serial(self):
        a = run("oracle-diff", "--max-degree", "4", "--format", "json")
        b = run("oracle-diff", "--max-degree", "4", "--threads", "2", "--format", "json")
        assert a.stdout == b.stdout

    def test_pmap_runs_the_slow_tasks_on_different_workers(self):
        from arccalc.cli import _pmap

        pids = _pmap(_pid_after_pause, list(range(16)), 2)
        assert pids[14] != pids[15]

    def test_pmap_starts_no_worker_beyond_the_tasks(self, monkeypatch):
        from arccalc import cli

        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return [fn(t) for t in tasks]

        class FakeContext:
            Pool = SerialPool

        monkeypatch.setattr("multiprocessing.get_context", lambda method: FakeContext)
        assert cli._pmap(abs, [-1, -2, -3], 64) == [1, 2, 3]
        assert cli._pmap(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert sizes == [3, 2]

    def test_homology(self):
        res = run("homology", "--genus", "2", "--side", "1", "--format", "json")
        assert res.returncode == 0
        rows = json.loads(res.stdout)["rows"]
        guaranteed = [r for r in rows if r["guaranteed"]]
        assert guaranteed and all(r["trivial"] for r in guaranteed)

    def test_homotopy_with_quotient_and_samples(self):
        res = run(
            "homotopy", "--max-degree", "4", "--genus", "2", "--side", "2",
            "--samples", "50", "--sample-degree", "7", "--format", "json",
        )
        assert res.returncode == 0
        checks = {r["check"] for r in json.loads(res.stdout)["rows"]}
        assert checks == {"full-complex", "quotient-lift", "sampled"}

    def test_e1_with_d1(self):
        res = run(
            "e1", "--ambient", "3,2", "--side", "1", "--max-p", "4",
            "--with-d1", "--format", "json",
        )
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["vanishing_bound"] == 5
        assert set(data["d1"]) == {"2", "3", "4"}
        # the emitted triples are exactly the library's matrix
        from arccalc.e1page import d1_matrix, e1_skeleton
        from arccalc.surfaces import SurfaceType

        page = e1_skeleton(SurfaceType(3, 2), 1, 4)
        for p in ("2", "3", "4"):
            assert data["d1"][p] == d1_matrix(page, int(p)).to_triples()

    def test_e1_a_failed_d1_check_fails_the_report(self, monkeypatch, capsys):
        # a cancellation rule that loses one term of one word, as a broken
        # rule would: the word's d1 column keeps it.  The check passes the
        # summands' byte words, so the word is matched as one
        from arccalc import e1page
        from arccalc.surfaces import SurfaceType

        page = e1page.e1_skeleton(SurfaceType(3, 2), 1, 5)
        report = e1page.cancellation_report
        word = next(s.word for s in page.column(5) if report(s.word))

        def broken(w):
            out = report(w)
            if w == word:
                out.popitem()
            return out

        monkeypatch.setattr(e1page, "cancellation_report", broken)
        argv = ["e1", "--ambient", "3,2", "--side", "1", "--max-p", "5", "--with-d1", "--format", "json"]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert '"ok": false' in out
        assert set(json.loads(out)["d1"]) == {"2", "3", "4", "5"}

    def test_ledger_csv(self):
        res = run("ledger", "--g-max", "6", "--k-max", "3", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "claim,params,inequality,holds"
        assert all(line.endswith("True") for line in lines[1:])

    @pytest.mark.parametrize(
        "args",
        [
            ("invariants", "--perm", "1,2,0", "--side", "2", "--ambient", "5,3"),
            ("oracle-diff", "--max-degree", "3"),
            ("homology", "--genus", "2", "--side", "1"),
            ("homotopy", "--max-degree", "3", "--genus", "2", "--side", "2"),
            ("e1", "--ambient", "3,2", "--side", "1", "--max-p", "3"),
            ("ledger", "--g-max", "6", "--k-max", "3"),
            ("exceptions", "--case", "surj-s01"),
        ],
        ids=lambda args: args[0],
    )
    def test_csv_rows_have_the_header_width(self, args):
        res = run(*args, "--format", "csv")
        assert res.returncode == 0
        header, *rows = csv.reader(res.stdout.splitlines())
        assert rows or args[0] == "oracle-diff"
        assert all(len(row) == len(header) for row in rows), args[0]

    def test_exceptions_csv(self):
        res = run("exceptions", "--case", "surj-s11", "--format", "csv")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "case,l,m,n,g,k"
        assert len(res.stdout.splitlines()) == 6


class TestOutputContract:
    def test_byte_identical_reruns(self):
        args = ("homology", "--genus", "2", "--side", "2", "--format", "json")
        assert run(*args).stdout == run(*args).stdout

    def test_env_var_format(self):
        res = run("exceptions", "--case", "inj-s11", env={"ARCCALC_FORMAT": "json"})
        json.loads(res.stdout)

    def test_flag_overrides_env(self):
        res = run(
            "exceptions", "--case", "inj-s11", "--format", "csv",
            env={"ARCCALC_FORMAT": "json"},
        )
        assert res.stdout.startswith("case,")

    def test_output_file(self, tmp_path):
        path = tmp_path / "report.json"
        res = run(
            "exceptions", "--case", "inj-s11", "--format", "json",
            "--output", str(path),
        )
        assert res.returncode == 0 and res.stdout == ""
        assert json.loads(path.read_text())["ok"]

    @pytest.mark.parametrize(
        "args",
        [
            ("e1", "--ambient", "3,2", "--side", "1", "--max-p", "5", "--with-d1"),
            ("ledger", "--g-max", "10", "--k-max", "5"),
        ],
        ids=["e1-with-d1", "ledger"],
    )
    def test_json_blocks_equal_one_dumps(self, args, tmp_path):
        from arccalc import cli

        res = run(*args, "--format", "json")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert res.stdout == json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args[0] == "ledger":
            # the report spans more than one block of encoder chunks
            chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
            assert sum(1 for _ in chunks) > cli.JSON_BLOCK
        path = tmp_path / "report.json"
        assert run(*args, "--format", "json", "--output", str(path)).returncode == 0
        assert path.read_bytes() == res.stdout.encode()

    def test_line_formats_yield_one_line_at_a_time(self):
        from arccalc.cli import _render

        report = {"rows": [{"a": 1, "b": "x"}, {"a": 22}], "total": 2, "command": "c", "ok": True}
        assert list(_render(report, ("a", "b"), "csv")) == ["a,b\n", "1,x\n", "22,\n"]
        assert list(_render(report, ("a", "b"), "table")) == [
            "a   b\n", "1   x\n", "22   \n", "ok: True  (total=2)\n",
        ]

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_e1_holds_no_rows(self, fmt, monkeypatch, tmp_path):
        # the report is written while its rows are made, so rendering it needs
        # a small part of what the page holds, beyond what any report needs
        from arccalc import e1page, surfaces

        skeleton, seen = e1page.e1_skeleton, {}

        def measured(*args):
            # collected, so that garbage made or freed here is not the page's
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            page = skeleton(*args)
            gc.collect()
            seen["base"] = tracemalloc.get_traced_memory()[0]
            seen["page"] = seen["base"] - before
            tracemalloc.reset_peak()
            return page

        def above_page(max_p: int) -> int:
            # a word list cached earlier would not count as the page's own
            surfaces.realizable_perms.cache_clear()
            argv = ["e1", "--ambient", "4,2", "--side", "2", "--max-p", str(max_p), "--format", fmt]
            tracemalloc.start()
            try:
                code = cli.main(argv + ["--output", str(tmp_path / "report")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak - seen["base"]

        monkeypatch.setattr(e1page, "e1_skeleton", measured)
        # what a one-column report needs: the csv writer alone keeps a 128 KB
        # record buffer, about 0.15 of the degree-7 page
        fixed = above_page(1)
        assert (above_page(7) - fixed) / seen["page"] <= 0.25

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_line_formats_output_file_equals_stdout(self, fmt, tmp_path):
        args = ("ledger", "--g-max", "6", "--k-max", "3", "--format", fmt)
        res = run(*args)
        assert res.returncode == 0 and len(res.stdout.splitlines()) > 10
        path = tmp_path / "report.txt"
        assert run(*args, "--output", str(path)).returncode == 0
        assert path.read_bytes() == res.stdout.encode()

    def test_describe_round_trips_with_help(self):
        described = json.loads(run("--describe").stdout)
        for name, info in described["commands"].items():
            help_text = run(name, "--help").stdout
            for flag in info["flags"]:
                assert flag in help_text, (name, flag)

    def test_describe_lists_all_commands(self):
        described = json.loads(run("--describe").stdout)
        assert set(described["commands"]) == {
            "invariants", "oracle-diff", "homology", "homotopy", "e1",
            "ledger", "exceptions",
        }
        assert described["exit_codes"] == {
            "pass": 0, "check_failure": 1, "usage_error": 2,
        }


# a report's values: text that JSON escapes, nested values and a "rows" key
# below the top level, which the renderer must not read as the rows
_TEXT = st.text(st.sampled_from('ab "\\\n\té\u2028\U0001d11e'), max_size=6) | st.sampled_from(["rows", '"rows": [', ""])
_LEAF = st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats(allow_nan=False) | _TEXT
_VALUE = st.recursive(
    _LEAF,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(["rows", "a", "é"]), kids, max_size=3),
    max_leaves=6,
)
_COLUMNS = ("p", "perm", "rows")
# a row may miss a column, or hold a key no column names
_ROW = st.dictionaries(st.sampled_from(_COLUMNS + ("other",)), _VALUE, max_size=4)
# zero rows, one, two, and enough to cross block boundaries: the encoder
# yields at least two chunks per row (its separator and the row's dict), so
# the last count makes at least 2 * JSON_BLOCK chunks, written in 3 blocks
_COUNTS = [0, 1, 2, cli.JSON_BLOCK + 1]


@st.composite
def _reports(draw) -> dict:
    """A report of a few distinct rows repeated to a count, beside other keys."""
    distinct = draw(st.lists(_ROW, min_size=1, max_size=4))
    count = draw(st.sampled_from(_COUNTS))
    report = draw(st.dictionaries(st.sampled_from(["a", "d1", "total", "zeta"]), _VALUE, max_size=3))
    report.update(rows=[distinct[i % len(distinct)] for i in range(count)], command="c", ok=draw(st.booleans()))
    return report


class TestStreamedRender:
    @settings(deadline=None, max_examples=60)
    @given(report=_reports(), fmt=st.sampled_from(cli.FORMATS))
    @example(report={"rows": [], "command": "c", "ok": True}, fmt="json")
    @example(report={"rows": [{"p": "a\nb", "rows": {"rows": ['"', "\\"]}}], "command": "c", "ok": False}, fmt="table")
    def test_streamed_rows_render_as_the_materialised_list(self, report, fmt):
        rows = report["rows"]
        # made afresh on each read, as the e1 and ledger runners make theirs
        streamed = dict(report, rows=cli._Rows(lambda: (dict(r) for r in rows)))
        text = "".join(cli._render(streamed, _COLUMNS, fmt))
        assert text == "".join(cli._render(report, _COLUMNS, fmt))
        if fmt == "json":
            assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
        elif fmt == "table":
            # each column as wide as its widest cell, the header included
            widths = [max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c) for c in _COLUMNS]
            assert text.startswith("  ".join(c.ljust(w) for c, w in zip(_COLUMNS, widths)) + "\n")

    def test_describe_is_one_dumps(self):
        text = "".join(cli._json_blocks(cli.describe()))
        assert text == json.dumps(cli.describe(), sort_keys=True, indent=2) + "\n"
