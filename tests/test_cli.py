"""Command-line behaviour: exit codes, report text, artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hornsafe.cli import main
from hornsafe.driver import ENGINES
from hornsafe.lra import kernel
from programs import FIB, GOPAN_REPS, GOPAN_REPS_UNSAFE, SPLIT_RANGE, UNSAFE_LOOP, UNSAFE_SIMPLE

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def chc(tmp_path):
    def write(text, name="prog.chc"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestExitCodes:
    def test_safe_is_zero(self, chc, capsys):
        assert main(["verify", chc(FIB)]) == 0
        assert capsys.readouterr().out.startswith("SAFE\n")

    def test_unsafe_is_one(self, chc, capsys):
        assert main(["verify", chc(UNSAFE_SIMPLE)]) == 1
        assert capsys.readouterr().out.startswith("UNSAFE\n")

    def test_unknown_is_two(self, chc, capsys):
        code = main(["verify", chc(SPLIT_RANGE), "--engine", "rahft", "--max-iter", "4"])
        assert code == 2
        out = capsys.readouterr().out
        assert out.startswith("UNKNOWN\n")
        assert "reason: iteration-limit" in out

    def test_internal_error_is_unknown(self, tmp_path, capsys, monkeypatch):
        # a refutation with one multiplier flipped, zeroed or doubled is
        # no certificate, so interpolant_automaton refuses the labels it
        # gives with a ValueError; the verifier's fault must exit 2, not
        # 1, which means unsafe
        real = kernel.refutation
        for corrupt in (lambda w: -w, lambda w: 0, lambda w: 2 * w):

            def corrupted(ncols, rows):
                y = real(ncols, rows)
                i = next(i for i, w in enumerate(y) if w)
                return [*y[:i], corrupt(y[i]), *y[i + 1 :]]

            monkeypatch.setattr(kernel, "refutation", corrupted)
            stats = tmp_path / "stats.json"
            code = main(["verify", str(ROOT / "corpus" / "split_range.chc"), "--stats-json", str(stats)])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out.startswith("UNKNOWN\n")
            assert "reason: internal:ValueError\n" in captured.out
            assert captured.err.startswith("Traceback (most recent call last):\n")
            assert captured.err.endswith("ValueError: labelling is not a tree interpolant\n")
            payload = json.loads(stats.read_text())
            assert (payload["verdict"], payload["reason"]) == ("unknown", "internal:ValueError")

    def test_missing_file_is_three(self, capsys):
        assert main(["verify", "/nonexistent/q.chc"]) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_undecodable_file_is_three(self, tmp_path, capsys):
        path = tmp_path / "latin1.chc"
        path.write_bytes(b"\xff\xfe p(X).\n")
        assert main(["verify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"hornsafe: cannot read {path}: ")
        assert err.count("\n") == 1

    def test_parse_error_is_three(self, chc, capsys):
        assert main(["verify", chc("p(X :- X=1.\n")]) == 3
        # the message carries a line:column position
        assert "1:5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,position",
        [
            ("p(X) :- X = " + "9" * 5000 + ".\n", "1:13"),
            ("p(X) :- X = \u00b2.\n", "1:13"),
            # folds to a 4,995-digit constant, which the witness prints
            (
                "p(X) :- X = " + " * ".join(["9" * 999] * 5) + ".\nfalse :- p(X), X > 0.\n",
                "1:1013",
            ),
        ],
        ids=["long-literal", "superscript-digit", "long-product"],
    )
    def test_bad_number_is_three(self, chc, capsys, text, position):
        path = chc(text)
        assert main(["verify", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"hornsafe: {path}: {position}: ")
        assert err.count("\n") == 1

    def test_number_outgrowing_the_bound_is_unknown(self, chc, tmp_path, capsys):
        # each round of the analysis multiplies X by a 999-digit
        # constant, so a hull's projection soon builds a number past
        # chc_core.MAX_PRINTED_DIGITS
        big = "1" + "0" * 998
        text = (
            "p(X,Y) :- X=1, Y=0.\n"
            f"p(X2,Y2) :- p(X,Y), X2 = {big}*X, Y2 = Y+1.\n"
            "false :- p(X,Y), Y >= 5.\n"
        )
        stats = tmp_path / "stats.json"
        assert main(["verify", chc(text), "--stats-json", str(stats)]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("UNKNOWN\n")
        assert "reason: resource:analyze\n" in captured.out
        assert captured.err == ""
        payload = json.loads(stats.read_text())
        assert (payload["verdict"], payload["reason"]) == ("unknown", "resource:analyze")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_number_past_the_parser_bound_is_decided(self, chc, engine, capsys):
        # the analysis builds numbers of 3,996 digits: past the
        # parser's chc_core.MAX_DIGITS, still printable
        big = "9" * 999
        text = (
            "p(X) :- X = 1.\n"
            f"p(Y) :- p(X), Y = {big}*X.\n"
            f"false :- p(X), X >= {big}, X =< {big}.\n"
        )
        assert main(["verify", chc(text), "--engine", engine]) == 1
        assert capsys.readouterr().out.startswith("UNSAFE\n")

    def test_closed_stdout_keeps_the_verdict_code(self):
        # as in `hornsafe verify corpus/tri_sum.chc | true`: the reader of
        # stdout is gone before the report is printed
        read_end, write_end = os.pipe()
        os.close(read_end)
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "hornsafe", "verify", str(ROOT / "corpus" / "tri_sum.chc")],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": path},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 0
        assert done.stderr == b""

    def test_usage_error_is_three(self, chc, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", chc(FIB), "--engine", "bogus"])
        assert exc.value.code == 3
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3


class TestLongWideningDelay:
    # long delays build large hull projections, and --timeout is only
    # checked between phases, so a wall-clock guard bounds each child.
    # Each case's --stats-json, times_ms left out, must equal
    # tests/golden/<program>.delay<delay>.<engine>.json: iterations,
    # automata sizes and memo counts, which the goldens at the default
    # delay do not pin here
    @pytest.mark.parametrize(
        "name, engine, delay",
        [
            ("tri_sum.chc", "rahit", 4),
            ("tri_sum.chc", "rahit", 5),
            ("tri_sum.chc", "rahft", 4),
            ("tri_sum.chc", "rahft", 5),
            ("tri_sum.chc", "rahit", 6),
            ("tri_sum.chc", "rahft", 6),
            ("fib.chc", "rahit", 5),
        ],
    )
    def test_decides_safe(self, name, engine, delay, tmp_path):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        stats = tmp_path / "stats.json"
        done = subprocess.run(
            [sys.executable, "-m", "hornsafe", "verify", str(ROOT / "corpus" / name),
             "--engine", engine, "--widen-delay", str(delay), "--stats-json", str(stats)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=30,
        )
        assert done.returncode == 0
        assert done.stdout.startswith("SAFE\n")
        got = json.loads(stats.read_text())
        del got["times_ms"]
        golden = ROOT / "tests" / "golden" / f"{Path(name).stem}.delay{delay}.{engine}.json"
        assert got == json.loads(golden.read_text())


def chain(links: int, safe: bool) -> str:
    """p0 copied through a chain of links predicates into false: the
    split_range pattern behind the chain when safe, else a direct
    counterexample as deep as the chain."""
    lines = ["p0(X) :- X=0."]
    if safe:
        lines.append("p0(X) :- X=3.")
    lines += [f"p{i}(X) :- p{i - 1}(X)." for i in range(1, links)]
    if safe:
        lines.append(f"false :- X>=1, X=<2, p{links - 1}(X).")
    else:
        lines.append(f"false :- X=0, p{links - 1}(X).")
    return "\n".join(lines) + "\n"


class TestDeepTraces:
    # a child process has the default stack depth, whatever pytest's own
    # frames use up
    @staticmethod
    def run(path, engine, timeout=60):
        env_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "hornsafe", "verify", path, "--engine", engine],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": env_path},
            timeout=timeout,
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deep_counterexample_is_reported(self, chc, engine):
        done = self.run(chc(chain(400, safe=False)), engine)
        assert done.stderr == ""
        assert done.returncode == 1
        lines = done.stdout.splitlines()
        assert lines[:3] == ["UNSAFE", f"engine: {engine}", "iterations: 0"]
        trace = "".join(f"c{i}(" for i in range(401, 1, -1)) + "c1" + ")" * 400
        assert lines[3] == f"counterexample: {trace}"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deep_spurious_trace_is_refined(self, chc, engine):
        done = self.run(chc(chain(700, safe=True)), engine)
        assert done.stderr == ""
        assert done.returncode == 0
        assert done.stdout.startswith(f"SAFE\nengine: {engine}\niterations: 1\n")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_long_spurious_chain_is_refined_in_linear_time(self, chc, engine):
        # difference and the tree interpolant visit each of the 3,000
        # links once; done a round per link, the difference alone
        # takes tens of seconds
        done = self.run(chc(chain(3000, safe=True)), engine, timeout=10)
        assert done.stderr == ""
        assert done.returncode == 0
        assert done.stdout.startswith(f"SAFE\nengine: {engine}\niterations: 1\n")


class TestBadArguments:
    """Invalid option values and unwritable outputs are input errors:
    exit 3 with a one-line message, before any verdict."""

    @staticmethod
    def rejected(capsys, argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        return captured.err

    def test_negative_max_iter(self, chc, capsys):
        err = self.rejected(capsys, ["verify", chc(FIB), "--max-iter", "-1"])
        assert "--max-iter" in err

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_timeout_must_be_positive(self, chc, capsys, value):
        err = self.rejected(capsys, ["verify", chc(FIB), "--timeout", value])
        assert "--timeout" in err

    def test_negative_widen_delay(self, chc, capsys):
        err = self.rejected(capsys, ["verify", chc(FIB), "--widen-delay", "-1"])
        assert "--widen-delay" in err

    def test_dump_dir_is_a_file(self, chc, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["verify", chc(FIB), "--dump-dir", str(taken)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hornsafe: cannot write {taken}: File exists\n"

    def test_stats_json_in_missing_directory(self, chc, tmp_path, capsys):
        path = tmp_path / "missing" / "stats.json"
        assert main(["verify", chc(FIB), "--stats-json", str(path)]) == 3
        captured = capsys.readouterr()
        # refused before verify runs, so no verdict is printed
        assert captured.out == ""
        assert captured.err.startswith(f"hornsafe: cannot write {path}: ")
        assert len(captured.err.splitlines()) == 1


class TestReport:
    def test_unsafe_report_fields(self, chc, capsys):
        main(["verify", chc(UNSAFE_LOOP)])
        out = capsys.readouterr().out
        assert "engine: rahit" in out
        assert "iterations: 3" in out
        assert "counterexample: c3(c2(c2(c2(c1))))" in out
        assert "witness: " in out
        assert "X_n1=3" in out
        assert "time[analyze]: " in out
        assert "automata[0]: " in out

    def test_engine_selection_reported(self, chc, capsys):
        main(["verify", chc(UNSAFE_LOOP), "--engine", "rahft"])
        assert "engine: rahft" in capsys.readouterr().out

    def test_timeout_reason(self, chc, capsys):
        assert main(["verify", chc(FIB), "--timeout", "1e-9"]) == 2
        assert "reason: timeout" in capsys.readouterr().out


class TestDeltaWitness:
    """Witnesses whose point needs the delta step: the kernel's vertex
    meets a strict row with equality, so is_sat must shrink delta below
    1 before the point satisfies every row."""

    CASES = [
        ("p(X) :- X > 0, X < 1.\nfalse :- p(X).\n", {"X_n1": "1/2"}),
        (
            "p(X,Y) :- X > 0, Y > X, Y < 1.\nfalse :- p(X,Y), X + Y < 1/3.\n",
            {"X_n1": "1/18", "Y_n1": "1/9"},
        ),
    ]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("text,point", CASES, ids=["interval", "triangle"])
    def test_report_and_stats_json(self, chc, tmp_path, capsys, engine, text, point):
        stats = tmp_path / "stats.json"
        assert main(["verify", chc(text), "--engine", engine, "--stats-json", str(stats)]) == 1
        line = ", ".join(f"{v}={x}" for v, x in point.items())
        assert f"\nwitness: {line}\n" in capsys.readouterr().out
        assert json.loads(stats.read_text())["witness"] == point

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ground_counterexample_has_empty_witness(self, chc, tmp_path, capsys, engine):
        stats = tmp_path / "stats.json"
        assert main(["verify", chc("false.\n"), "--engine", engine, "--stats-json", str(stats)]) == 1
        assert "witness:" not in capsys.readouterr().out
        assert "witness" not in json.loads(stats.read_text())


class TestStrictToNonstrict:
    def test_rewrite_changes_verdict_on_integer_style_input(self, chc, capsys):
        # over the rationals X<1, X>0 is satisfiable, so this is unsafe;
        # rewritten to X=<0, X>=1 it becomes vacuous
        text = "p(X) :- X>0.\nfalse :- X<1, p(X).\n"
        assert main(["verify", chc(text)]) == 1
        capsys.readouterr()
        assert main(["verify", chc(text), "--strict-to-nonstrict"]) == 0

    def test_rewrite_keeps_unsafe_program_unsafe(self, chc, capsys):
        # X = 1 satisfies 1/2*X < 1; the rewrite must keep that model
        text = "p(X) :- X=1.\nfalse :- 1/2*X < 1, p(X).\n"
        assert main(["verify", chc(text), "--strict-to-nonstrict"]) == 1

    HALF = "p(X) :- 2*X = 1.\nfalse :- p(X).\n"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_integral_witness_is_unknown(self, chc, tmp_path, capsys, engine):
        # the program is not integer-valued, and its only counterexample
        # passes through X = 1/2, which proves nothing over the integers
        stats = tmp_path / "stats.json"
        argv = ["verify", chc(self.HALF), "--engine", engine, "--stats-json", str(stats)]
        assert main([*argv, "--strict-to-nonstrict"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("UNKNOWN\n")
        assert "\nreason: non-integral-witness\ncounterexample: c2(c1)\n" in out
        assert "witness:" not in out
        payload = json.loads(stats.read_text())
        assert (payload["verdict"], payload["reason"], payload["trace"]) == (
            "unknown",
            "non-integral-witness",
            "c2(c1)",
        )
        assert "witness" not in payload
        # without the flag the same point is a rational counterexample
        assert main(argv) == 1
        assert "\nwitness: X_n1=1/2\n" in capsys.readouterr().out
        assert json.loads(stats.read_text())["witness"] == {"X_n1": "1/2"}



class TestGopanReps:
    """The first pinned refinement runs with deep trees: the unsafe loop
    is refuted after 102 rounds under both engines, each round's tree
    one node deeper.  The labels that one refutation of the whole tree
    gives make rahit need 3 rounds for the safe loop; per-node binary
    interpolants made it 2."""

    @pytest.mark.parametrize(
        "text, engine, code, rounds",
        [
            (GOPAN_REPS, "rahit", 0, 3),
            (GOPAN_REPS, "rahft", 0, 51),
            (GOPAN_REPS_UNSAFE, "rahit", 1, 102),
            (GOPAN_REPS_UNSAFE, "rahft", 1, 102),
        ],
        ids=["safe-rahit", "safe-rahft", "unsafe-rahit", "unsafe-rahft"],
    )
    def test_verdict_and_rounds(self, chc, capsys, text, engine, code, rounds):
        argv = ["verify", chc(text), "--engine", engine, "--strict-to-nonstrict", "--max-iter", "120"]
        assert main(argv) == code
        assert f"\niterations: {rounds}\n" in capsys.readouterr().out

class TestArtifacts:
    def test_stats_json(self, chc, tmp_path, capsys):
        out = tmp_path / "stats.json"
        main(["verify", chc(UNSAFE_LOOP), "--stats-json", str(out)])
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "unsafe"
        assert payload["iterations"] == 3
        assert payload["trace"] == "c3(c2(c2(c2(c1))))"
        assert payload["witness"]["X_n1"] == "3"
        assert payload["times_ms"]["analyze"] >= 0

    def test_stats_json_memo_keys_in_step_order(self, chc, tmp_path, capsys):
        # hornsafe.run.STEPS fixes the order, whatever order the
        # memoising modules were imported in
        out = tmp_path / "stats.json"
        main(["verify", chc(UNSAFE_LOOP), "--stats-json", str(out)])
        memo = json.loads(out.read_text())["memo"]
        assert list(memo) == ["hull", "clause_post"]

    def test_dump_dir(self, chc, tmp_path, capsys):
        dump = tmp_path / "dumps"
        main(["verify", chc(UNSAFE_LOOP), "--dump-dir", str(dump)])
        names = {p.name for p in dump.iterdir()}
        for expected in (
            "iter0.program.chc",
            "iter0.model.txt",
            "iter0.model_fta.txt",
            "iter0.remover.txt",
            "iter1.program.chc",
            "iter1.idmap.txt",
        ):
            assert expected in names

    def test_widen_delay_flag_accepted(self, chc, capsys):
        assert main(["verify", chc(FIB), "--widen-delay", "1"]) == 0
