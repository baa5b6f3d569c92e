import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from math import isfinite

import pytest
from click.testing import CliRunner

from credal.cli import main
from tests.conftest import REPO_ROOT

DOC = textwrap.dedent("""\
    frame w: w1 w2 w3
    mass nested over w:
      {w1} 0.5
      {w1 w2} 0.3
      {w1 w2 w3} 0.2
    mass torn over w:
      {w1 w2} 0.5
      {w2 w3} 0.5
    pi ramp over w: 1.0 0.7 0.3
    prob flat over w: 0.2 0.3 0.5
    statement likely over w: core {w1 w2} alpha 0.9
    scale age: 20..24
    fuzzy young over age: (20,1.0) (21,1.0) (24,0.0)
    prob ages over age: 0.2 0.2 0.2 0.2 0.2
""")


def run(*args: str, doc: str = DOC, expect_exit: int = 0):
    runner = CliRunner()
    result = runner.invoke(main, ["--doc", "-", *args], input=doc)
    assert result.exit_code == expect_exit, result.output + result.stderr
    return result


def parse_session(path) -> list[tuple[str, list[str], str]]:
    """Split a session file into (argv-line, argv, expected-stdout) blocks."""
    blocks = []
    command = None
    expected: list[str] = []

    def flush():
        if command is not None:
            while expected and not expected[-1].strip():
                expected.pop()  # blank separator lines are not output
            blocks.append((command, shlex.split(command)[1:], "\n".join(expected) + "\n"))

    for raw in path.read_text().splitlines():
        if raw.startswith("$ "):
            flush()
            command = raw[2:]
            expected = []
        elif raw.strip() or expected:
            expected.append(raw)
    flush()
    return blocks


SESSION_BLOCKS = [
    pytest.param(argv, stdout, id=f"{path.stem}:{line}")
    for path in sorted(REPO_ROOT.glob("samples/*.session"))
    for line, argv, stdout in parse_session(path)
]


@pytest.mark.parametrize("argv,stdout", SESSION_BLOCKS)
def test_recorded_sessions_replay_exactly(repo_root, argv, stdout):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.stderr
    assert result.output == stdout


class TestQuery:
    def test_belief_human(self):
        assert run("query", "Bel", "nested", "{w1 w2}").output == "Bel = 0.8\n"

    def test_plausibility_on_prob(self):
        assert run("query", "Pl", "flat", "{w2 w3}").output == "Pl = 0.8\n"

    def test_possibility(self):
        assert run("query", "Pi", "ramp", "{w2 w3}").output == "Pi = 0.7\n"

    def test_necessity(self):
        assert run("query", "N", "ramp", "{w1}").output == "N = 0.3\n"

    def test_csv(self):
        out = run("--csv", "query", "N", "ramp", "{w1}").output
        assert out == "measure,object,subset,value\nN,ramp,{w1},0.300000\n"

    def test_unknown_object(self):
        result = run("query", "Bel", "ghost", "{w1}", expect_exit=1)
        assert "unknown mass or prob 'ghost'" in result.stderr

    def test_name_of_both_a_mass_and_a_prob(self):
        doc = "frame w: a b\nmass x over w:\n  {a} 1\nprob x over w: 0.5 0.5\n"
        result = run("query", "Bel", "x", "{a}", doc=doc, expect_exit=1)
        assert result.stderr == "Error: 'x' names both a mass and a prob; rename one of them\n"

    def test_pi_measure_needs_pi_object(self):
        result = run("query", "Pi", "nested", "{w1}", expect_exit=1)
        assert "unknown pi 'nested'" in result.stderr

    def test_bad_subset_literal(self):
        result = run("query", "Bel", "nested", "{w9}", expect_exit=1)
        assert "unknown" in result.stderr

    def test_bad_measure_is_usage_error(self):
        run("query", "Q", "nested", "{w1}", expect_exit=2)


class TestConvert:
    def test_pi_to_mass(self):
        out = run("convert", "ramp").output
        assert out == (
            "mass ramp_mass over w:\n"
            "  {w1} 0.3\n"
            "  {w1 w2} 0.4\n"
            "  {w1 w2 w3} 0.3\n"
        )

    def test_mass_to_pi(self):
        out = run("convert", "nested").output
        assert out == "pi nested_pi over w: 1 0.5 0.2\n"

    def test_round_trip_through_rendered_document(self):
        # feed the rendered mass block back in as a document and convert again
        block = run("convert", "ramp").output
        doc2 = "frame w: w1 w2 w3\n" + block
        out = run("convert", "ramp_mass", doc=doc2).output
        assert out == "pi ramp_mass_pi over w: 1 0.7 0.3\n"

    def test_dissonant_mass_refused(self):
        result = run("convert", "torn", expect_exit=1)
        assert "not consonant" in result.stderr
        assert "approx" in result.stderr

    def test_csv_pi_to_mass(self):
        out = run("--csv", "convert", "ramp").output
        assert out.splitlines()[0] == "subset,weight"
        assert "{w1 w2},0.400000" in out

    def test_csv_mass_to_pi(self):
        out = run("--csv", "convert", "nested").output
        assert out == "atom,value\nw1,1.000000\nw2,0.500000\nw3,0.200000\n"

    def test_name_of_both_a_pi_and_a_mass(self):
        doc = "frame w: a b\nmass x over w:\n  {a} 1\npi x over w: 1 0.5\n"
        result = run("convert", "x", doc=doc, expect_exit=1)
        assert result.stderr == "Error: 'x' names both a pi and a mass; rename one of them\n"

    def test_unknown_name(self):
        result = run("convert", "ghost", expect_exit=1)
        assert "unknown pi or mass 'ghost'" in result.stderr


class TestApprox:
    def test_consistent_mass(self):
        out = run("approx", "nested").output
        assert out == "pi nested_approx over w: 1 0.5 0.2\n# consistent: true\n"

    def test_conflicting_mass_reports_subnormalization(self):
        doc = "frame w: w1 w2\nmass split over w:\n  {w1} 0.5\n  {w2} 0.5\n"
        out = run("approx", "split", doc=doc).output
        assert out == "pi split_approx over w: 1 1\n# consistent: false (subnormalization 0.5)\n"

    def test_csv(self):
        out = run("--csv", "approx", "nested").output
        lines = out.splitlines()
        assert lines[0] == "atom,pi,consistent,subnormalization"
        assert lines[1] == "w1,1.000000,true,1.000000"

    def test_probs_are_not_masses_here(self):
        result = run("approx", "flat", expect_exit=1)
        assert "unknown mass 'flat'" in result.stderr


class TestCondition:
    def test_possibilistic(self):
        out = run("condition", "young").output
        lines = out.splitlines()
        assert lines[0].startswith("pi young_pi over age: 1 1 ")
        assert lines[1].startswith("# certainty: 0 0 ")

    def test_bayesian_with_prior(self):
        out = run("condition", "young", "--prior", "ages").output
        assert out.startswith("prob young_posterior over age: ")

    def test_csv_possibilistic(self):
        out = run("--csv", "condition", "young").output
        assert out.splitlines()[0] == "point,pi,certainty"

    def test_unknown_prior(self):
        result = run("condition", "young", "--prior", "ghost", expect_exit=1)
        assert "unknown prob 'ghost'" in result.stderr

    def test_unknown_fuzzy(self):
        result = run("condition", "old", expect_exit=1)
        assert "unknown fuzzy set 'old'" in result.stderr


class TestElicit:
    def test_statement_both(self):
        out = run("elicit", "--statement", "likely").output
        assert out == (
            "prob likely_maxent over w: 0.45 0.45 0.1\n"
            "mass likely_minspec over w:\n"
            "  {w1 w2} 0.9\n"
            "  {w1 w2 w3} 0.1\n"
            "pi likely_minspec_pi over w: 1 1 0.1\n"
        )

    def test_inline_statement(self):
        out = run("elicit", "--frame", "w", "--core", "{w3}", "--alpha", "1.0",
                  "--method", "maxent").output
        assert out == "prob elicited_maxent over w: 0 0 1\n"

    def test_check_method(self):
        out = run("elicit", "--statement", "likely", "--method", "check").output
        assert "subsets checked: 8" in out
        assert "bracket holds: yes" in out

    def test_csv_check_method(self):
        out = run("--csv", "elicit", "--statement", "likely", "--method", "check").output
        assert out == ("subsets_checked,max_violation,tightest_width,tightest_subset,holds\n"
                       "8,0.000000,0.100000,{w1 w2},true\n")

    def test_statement_excludes_inline(self):
        result = run("elicit", "--statement", "likely", "--alpha", "0.5", expect_exit=2)
        assert "excludes" in result.stderr

    def test_inline_requires_all_three(self):
        result = run("elicit", "--frame", "w", "--core", "{w1}", expect_exit=2)
        assert "all of" in result.stderr

    def test_unknown_statement(self):
        result = run("elicit", "--statement", "ghost", expect_exit=1)
        assert "unknown statement 'ghost'" in result.stderr

    def test_csv_parts(self):
        out = run("--csv", "elicit", "--statement", "likely").output
        assert out == (
            "part,key,value\n"
            "p,w1,0.450000\np,w2,0.450000\np,w3,0.100000\n"
            "focal,{w1 w2},0.900000\nfocal,{w1 w2 w3},0.100000\n"
            "pi,w1,1.000000\npi,w2,1.000000\npi,w3,0.100000\n"
        )

    def test_csv_maxent(self):
        out = run("--csv", "elicit", "--statement", "likely", "--method", "maxent").output
        assert out == "part,key,value\np,w1,0.450000\np,w2,0.450000\np,w3,0.100000\n"


class TestTriangle:
    def test_always_csv_row(self):
        assert run("triangle", "nested", "{w1}").output == "nested,0.500000,0.000000,possibilistic-axes,\n"

    def test_csv_flag_prints_the_same_row(self):
        assert run("--csv", "triangle", "nested", "{w1}").output == "nested,0.500000,0.000000,possibilistic-axes,\n"

    def test_prob_object(self):
        assert run("triangle", "flat", "{w1}").output == "flat,0.200000,0.800000,probabilistic-edge,\n"

    def test_trivial_subset_rejected(self):
        result = run("triangle", "nested", "{}", expect_exit=1)
        assert "contingent" in result.stderr


class TestSimpleCommands:
    def test_cardinality(self):
        assert run("cardinality", "nested").output == "expected cardinality = 1.7\n"

    def test_cardinality_csv(self):
        assert run("--csv", "cardinality", "nested").output == (
            "mass,expected_cardinality\nnested,1.700000\n")

    def test_classify(self):
        assert run("classify", "nested").output == "classification = consonant (labels: consonant)\n"

    def test_classify_csv(self):
        assert run("--csv", "classify", "torn").output == "mass,tag,labels\ntorn,general,general\n"

    def test_check(self):
        out = run("check", "likely").output
        assert out.splitlines()[-1] == "bracket holds: yes"

    def test_check_csv(self):
        out = run("--csv", "check", "likely").output
        lines = out.splitlines()
        assert lines[0] == "subsets_checked,max_violation,tightest_width,tightest_subset,holds"
        assert lines[1].startswith("8,0.000000,0.100000,{w1 w2},true")

    BIG = "frame big: {}\nstatement s over big: core {{a0 a5}} alpha 0.8\n".format(
        " ".join(f"a{i}" for i in range(64)))

    @pytest.mark.parametrize("argv", [["check", "s"], ["elicit", "--statement", "s", "--method", "check"]])
    def test_check_covers_64_atoms(self, argv):
        assert run(*argv, doc=self.BIG).output == (
            "subsets checked: 18446744073709551616\n"
            "max violation: 2.66454e-15\n"
            "tightest width: 0.2 at {a1}\n"
            "bracket holds: yes\n")
        assert run("--csv", *argv, doc=self.BIG).output == (
            "subsets_checked,max_violation,tightest_width,tightest_subset,holds\n"
            "18446744073709551616,0.000000,0.200000,{a1},true\n")

    def test_check_unknown(self):
        result = run("check", "ghost", expect_exit=1)
        assert "unknown statement 'ghost'" in result.stderr


def two_weights(a: str, b: str) -> bytes:
    return f"frame w: a b\nmass m over w:\n  {{a}} {a}\n  {{b}} {b}\n".encode()


def fuzzy_grade(grade: str) -> bytes:
    return f"scale age: 1..3\nfuzzy y over age: (1,1.0) (2,{grade}) (3,0.0)\n".encode()


# more digits than Python reads into an int, and far more than a float holds
NINES = "9" * 5000


class TestPlumbing:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "result.txt"
        runner = CliRunner()
        result = runner.invoke(
            main, ["--doc", "-", "--out", str(target), "cardinality", "nested"], input=DOC)
        assert result.exit_code == 0
        assert result.output == ""
        assert target.read_text() == "expected cardinality = 1.7\n"

    def test_csv_out_writes_file(self, tmp_path):
        target = tmp_path / "result.csv"
        result = run("--csv", "--out", str(target), "convert", "ramp")
        assert result.output == ""
        assert target.read_text() == "subset,weight\n{w1},0.300000\n{w1 w2},0.400000\n{w1 w2 w3},0.300000\n"

    def test_doc_parse_error_is_one_line(self):
        result = run("classify", "nested", doc="frame w: w1\nnonsense here", expect_exit=1)
        assert result.stderr.startswith("Error: line 2:")
        assert "Traceback" not in result.stderr

    # (document, argv after --doc -, start of the one stderr line); TMP is a fresh
    # directory that must stay empty: --out opens its file only on the first write
    BAD_INPUT = [
        pytest.param(two_weights("nan", "1.0"), ["query", "Bel", "m", "{a}"], "line 2: non-finite focal weight nan",
                     id="nan-weight-query"),
        pytest.param(two_weights("nan", "1.0"), ["classify", "m"], "line 2: non-finite focal weight nan",
                     id="nan-weight-classify"),
        pytest.param(two_weights("inf", "1.0"), ["query", "Bel", "m", "{a}"], "line 2: non-finite focal weight inf",
                     id="inf-weight-query"),
        pytest.param(two_weights("inf", "1.0"), ["classify", "m"], "line 2: non-finite focal weight inf",
                     id="inf-weight-classify"),
        pytest.param(two_weights("1e308", "1e308"), ["query", "Bel", "m", "{a}"], "line 2: focal weights sum to inf",
                     id="overflowing-sum-query"),
        pytest.param(two_weights("1e308", "1e308"), ["classify", "m"], "line 2: focal weights sum to inf",
                     id="overflowing-sum-classify"),
        pytest.param(two_weights("0.5", "0.5"), ["--out", "TMP/x", "classify", "ghost"], "unknown mass 'ghost'",
                     id="unknown-name-with-out"),
        pytest.param(fuzzy_grade("nan"), ["condition", "y"], "line 2: non-finite breakpoint grade nan",
                     id="nan-grade"),
        pytest.param(fuzzy_grade("inf"), ["condition", "y"], "line 2: non-finite breakpoint grade inf",
                     id="inf-grade"),
        pytest.param(fuzzy_grade("-inf"), ["condition", "y"], "line 2: non-finite breakpoint grade -inf",
                     id="minus-inf-grade"),
        pytest.param(b"\xff\xfe\x00bad", ["classify", "m"], "cannot read <stdin>: 'utf-8' codec can't decode",
                     id="not-utf8"),
        pytest.param(two_weights("0.5", "0.5"), ["--out", "TMP/missing/x", "classify", "m"],
                     "Could not open file 'TMP/missing/x': No such file or directory", id="out-in-missing-dir"),
        pytest.param(f"scale age: 1..3\nfuzzy y over age: (1,1.0) ({NINES[:400]},0.0)\n".encode(), ["condition", "y"],
                     "line 2: breakpoint or scale point too large for a float", id="400-digit-breakpoint"),
        pytest.param(f"scale s: 1..{NINES}\n".encode(), ["classify", "m"],
                     "line 1: integer of 5000 digits is too long", id="5000-digit-scale-bound"),
        pytest.param(f"scale s: 1..{NINES[:4300]}\n".encode(), ["classify", "m"],
                     "line 1: scale 1..99999999...99999999 (4300 digits) has more than 64 points\n",
                     id="4300-digit-scale-bound"),
        pytest.param(f"scale age: {NINES[:399]}8..{NINES[:400]}\nfuzzy y over age: (1,1.0) (2,0.0)\n".encode(),
                     ["condition", "y"], "line 2: breakpoint or scale point too large for a float",
                     id="400-digit-scale-points"),
        pytest.param(f"scale age: 1..3\nfuzzy y over age: (1,1.0) ({NINES},0.0)\n".encode(), ["condition", "y"],
                     "line 2: integer of 5000 digits is too long", id="5000-digit-breakpoint"),
    ]

    @pytest.mark.parametrize("doc,argv,message", BAD_INPUT)
    def test_bad_input_is_one_line(self, tmp_path, doc, argv, message):
        argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
        result = run(*argv, doc=doc, expect_exit=1)
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("Error: " + message.replace("TMP", str(tmp_path)))
        assert len(result.stderr.splitlines()) == 1
        assert len(result.stderr.replace(str(tmp_path), "TMP").encode()) < 200
        assert "Traceback" not in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_missing_doc_is_usage_error(self):
        result = CliRunner().invoke(main, ["classify", "nested"])
        assert result.exit_code == 2

    def test_doc_file_path(self, repo_root):
        result = CliRunner().invoke(
            main, ["--doc", "samples/horse_race.txt", "cardinality", "horse_leaky"])
        assert result.exit_code == 0
        assert result.output == "expected cardinality = 2.2\n"


DECIMAL = re.compile(r"(?<![\w.])\d+\.\d+(?![\w.])")


def swept_documents(text: str):
    """The document with each decimal token outside comments, in turn, made extreme."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.lstrip().startswith("#"):
            continue
        for m in DECIMAL.finditer(line):
            for token in ("nan", "inf", "-inf", "1e308"):
                swept = line[:m.start()] + token + line[m.end():]
                yield swept, "".join(lines[:i] + [swept] + lines[i + 1:])


@pytest.mark.parametrize("session", sorted(REPO_ROOT.glob("samples/*.session")),
                         ids=lambda path: path.stem)
def test_extreme_values_give_finite_output_or_one_error_line(session):
    """Every session command on every swept document: finite stdout, or one `Error:` line."""
    commands = [argv for _, argv, _ in parse_session(session)]
    [doc_path] = {argv[1] for argv in commands}
    runner = CliRunner()
    documents = list(swept_documents((REPO_ROOT / doc_path).read_text()))
    assert documents
    for swept, doc in documents:
        for argv in commands:
            result = runner.invoke(main, ["--doc", "-", *argv[2:]], input=doc)
            where = f"{swept.strip()!r} with {argv[2:]}: {result.stdout!r} {result.stderr!r}"
            if result.exit_code == 0:
                for token in re.split(r"[\s,:=(){}]+", result.stdout):
                    try:
                        value = float(token)
                    except ValueError:
                        continue
                    assert isfinite(value), where
                continue
            assert result.exit_code in (1, 2), where
            assert isinstance(result.exception, SystemExit), where
            lines = result.stderr.splitlines()
            assert [line for line in lines if line.startswith("Error: ")] == lines[-1:], where
            assert result.exit_code == 2 or len(lines) == 1, where


class TestStartup:
    """`python -m credal.cli` in a fresh interpreter, as a user runs it."""

    @staticmethod
    def python(*args: str, input: str = "", stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return subprocess.run([sys.executable, *args], cwd=REPO_ROOT, env=env, input=input,
                              stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)

    def test_import_leaves_numpy_unloaded(self):
        result = self.python("-c", "import sys, credal.cli; print('numpy' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_bracket_check_prints_the_transcript(self):
        argv = "--doc samples/statement10.txt --csv check s1"
        [expected] = [out for line, _, out in parse_session(REPO_ROOT / "samples/statement10.session")
                      if line == f"credal {argv}"]
        result = self.python("-m", "credal.cli", *shlex.split(argv))
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected

    def test_large_bracket_check_leaves_numpy_unloaded(self):
        code = ("import sys; from credal.cli import main; "
                "main(sys.argv[1:], standalone_mode=False); print('numpy' in sys.modules)")
        atoms = " ".join(f"a{i}" for i in range(18))
        doc = f"frame w: {atoms}\nstatement s over w: core {{a0 a1 a2}} alpha 0.8\n"
        result = self.python("-c", code, "--doc", "-", "check", "s", input=doc)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "subsets checked: 262144", "max violation: 3.33067e-16", "tightest width: 0.2 at {a0 a1 a2}",
            "bracket holds: yes", "False"]

    def test_sample_sessions_replay_without_numpy(self):
        # numpy = None in sys.modules makes every `import numpy` fail
        code = ("import json, sys; sys.modules['numpy'] = None; "
                "from click.testing import CliRunner; from credal.cli import main; "
                "print(json.dumps([[r.exit_code, r.stdout] for r in "
                "(CliRunner().invoke(main, argv) for argv in json.load(sys.stdin))]))")
        blocks = [(argv, out) for path in sorted(REPO_ROOT.glob("samples/*.session"))
                  for _, argv, out in parse_session(path)]
        result = self.python("-c", code, input=json.dumps([argv for argv, _ in blocks]))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [[0, out] for _, out in blocks]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    @pytest.mark.parametrize("redirect", [False, True], ids=["stdout", "out"])
    def test_failed_write_is_one_line(self, redirect):
        argv = ["--doc", "samples/horse_race.txt", "classify", "horse_leaky"]
        with open("/dev/full", "w") as full:
            if redirect:
                result = self.python("-m", "credal.cli", "--out", "/dev/full", *argv)
            else:
                result = self.python("-m", "credal.cli", *argv, stdout=full)
        assert result.returncode == 1
        assert result.stderr == "Error: cannot write the output: No space left on device\n"
