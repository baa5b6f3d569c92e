import os
import re
import shlex
import subprocess
import sys
import textwrap

import pytest

from cli_runner import credal
from conftest import REPO_ROOT
from credal.cli import COMMANDS, _get

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
    result = credal(*args, doc=doc)
    assert result.exit_code == expect_exit, result
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
def test_recorded_sessions_replay_exactly(repo_root, monkeypatch, argv, stdout):
    monkeypatch.setitem(sys.modules, "numpy", None)  # every `import numpy` fails
    result = credal(*argv)
    assert result.exit_code == 0
    assert result.stdout == stdout


class TestQuery:
    def test_belief_human(self):
        assert run("query", "Bel", "nested", "{w1 w2}").stdout == "Bel = 0.8\n"

    def test_plausibility_on_prob(self):
        assert run("query", "Pl", "flat", "{w2 w3}").stdout == "Pl = 0.8\n"

    def test_possibility(self):
        assert run("query", "Pi", "ramp", "{w2 w3}").stdout == "Pi = 0.7\n"

    def test_necessity(self):
        assert run("query", "N", "ramp", "{w1}").stdout == "N = 0.3\n"

    def test_csv(self):
        out = run("--csv", "query", "N", "ramp", "{w1}").stdout
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
        out = run("convert", "ramp").stdout
        assert out == (
            "mass ramp_mass over w:\n"
            "  {w1} 0.3\n"
            "  {w1 w2} 0.4\n"
            "  {w1 w2 w3} 0.3\n"
        )

    def test_mass_to_pi(self):
        out = run("convert", "nested").stdout
        assert out == "pi nested_pi over w: 1 0.5 0.2\n"

    def test_round_trip_through_rendered_document(self):
        # feed the rendered mass block back in as a document and convert again
        block = run("convert", "ramp").stdout
        doc2 = "frame w: w1 w2 w3\n" + block
        out = run("convert", "ramp_mass", doc=doc2).stdout
        assert out == "pi ramp_mass_pi over w: 1 0.7 0.3\n"

    def test_dissonant_mass_refused(self):
        result = run("convert", "torn", expect_exit=1)
        assert "not consonant" in result.stderr
        assert "approx" in result.stderr

    def test_csv_pi_to_mass(self):
        out = run("--csv", "convert", "ramp").stdout
        assert out.splitlines()[0] == "subset,weight"
        assert "{w1 w2},0.400000" in out

    def test_csv_mass_to_pi(self):
        out = run("--csv", "convert", "nested").stdout
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
        out = run("approx", "nested").stdout
        assert out == "pi nested_approx over w: 1 0.5 0.2\n# consistent: true\n"

    def test_conflicting_mass_reports_subnormalization(self):
        doc = "frame w: w1 w2\nmass split over w:\n  {w1} 0.5\n  {w2} 0.5\n"
        out = run("approx", "split", doc=doc).stdout
        assert out == "pi split_approx over w: 1 1\n# consistent: false (subnormalization 0.5)\n"

    def test_csv(self):
        out = run("--csv", "approx", "nested").stdout
        lines = out.splitlines()
        assert lines[0] == "atom,pi,consistent,subnormalization"
        assert lines[1] == "w1,1.000000,true,1.000000"

    def test_probs_are_not_masses_here(self):
        result = run("approx", "flat", expect_exit=1)
        assert "unknown mass 'flat'" in result.stderr


class TestCondition:
    def test_possibilistic(self):
        out = run("condition", "young").stdout
        lines = out.splitlines()
        assert lines[0].startswith("pi young_pi over age: 1 1 ")
        assert lines[1].startswith("# certainty: 0 0 ")

    def test_bayesian_with_prior(self):
        out = run("condition", "young", "--prior", "ages").stdout
        assert out.startswith("prob young_posterior over age: ")

    def test_csv_possibilistic(self):
        out = run("--csv", "condition", "young").stdout
        assert out.splitlines()[0] == "point,pi,certainty"

    def test_unknown_prior(self):
        result = run("condition", "young", "--prior", "ghost", expect_exit=1)
        assert "unknown prob 'ghost'" in result.stderr

    def test_unknown_fuzzy(self):
        result = run("condition", "old", expect_exit=1)
        assert "unknown fuzzy set 'old'" in result.stderr


class TestElicit:
    def test_statement_both(self):
        out = run("elicit", "--statement", "likely").stdout
        assert out == (
            "prob likely_maxent over w: 0.45 0.45 0.1\n"
            "mass likely_minspec over w:\n"
            "  {w1 w2} 0.9\n"
            "  {w1 w2 w3} 0.1\n"
            "pi likely_minspec_pi over w: 1 1 0.1\n"
        )

    def test_inline_statement(self):
        out = run("elicit", "--frame", "w", "--core", "{w3}", "--alpha", "1.0",
                  "--method", "maxent").stdout
        assert out == "prob elicited_maxent over w: 0 0 1\n"

    def test_check_method(self):
        out = run("elicit", "--statement", "likely", "--method", "check").stdout
        assert "subsets checked: 8" in out
        assert "bracket holds: yes" in out

    def test_csv_check_method(self):
        out = run("--csv", "elicit", "--statement", "likely", "--method", "check").stdout
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
        out = run("--csv", "elicit", "--statement", "likely").stdout
        assert out == (
            "part,key,value\n"
            "p,w1,0.450000\np,w2,0.450000\np,w3,0.100000\n"
            "focal,{w1 w2},0.900000\nfocal,{w1 w2 w3},0.100000\n"
            "pi,w1,1.000000\npi,w2,1.000000\npi,w3,0.100000\n"
        )

    def test_csv_maxent(self):
        out = run("--csv", "elicit", "--statement", "likely", "--method", "maxent").stdout
        assert out == "part,key,value\np,w1,0.450000\np,w2,0.450000\np,w3,0.100000\n"


class TestTriangle:
    def test_always_csv_row(self):
        assert run("triangle", "nested", "{w1}").stdout == "nested,0.500000,0.000000,possibilistic-axes,\n"

    def test_csv_flag_prints_the_same_row(self):
        assert run("--csv", "triangle", "nested", "{w1}").stdout == "nested,0.500000,0.000000,possibilistic-axes,\n"

    def test_prob_object(self):
        assert run("triangle", "flat", "{w1}").stdout == "flat,0.200000,0.800000,probabilistic-edge,\n"

    def test_trivial_subset_rejected(self):
        result = run("triangle", "nested", "{}", expect_exit=1)
        assert "contingent" in result.stderr


class TestSimpleCommands:
    def test_cardinality(self):
        assert run("cardinality", "nested").stdout == "expected cardinality = 1.7\n"

    def test_cardinality_csv(self):
        assert run("--csv", "cardinality", "nested").stdout == (
            "mass,expected_cardinality\nnested,1.700000\n")

    def test_classify(self):
        assert run("classify", "nested").stdout == "classification = consonant (labels: consonant)\n"

    def test_classify_csv(self):
        assert run("--csv", "classify", "torn").stdout == "mass,tag,labels\ntorn,general,general\n"

    def test_check(self):
        out = run("check", "likely").stdout
        assert out.splitlines()[-1] == "bracket holds: yes"

    def test_check_csv(self):
        out = run("--csv", "check", "likely").stdout
        lines = out.splitlines()
        assert lines[0] == "subsets_checked,max_violation,tightest_width,tightest_subset,holds"
        assert lines[1].startswith("8,0.000000,0.100000,{w1 w2},true")

    BIG = "frame big: {}\nstatement s over big: core {{a0 a5}} alpha 0.8\n".format(
        " ".join(f"a{i}" for i in range(64)))

    @pytest.mark.parametrize("argv", [["check", "s"], ["elicit", "--statement", "s", "--method", "check"]])
    def test_check_covers_64_atoms(self, argv):
        assert run(*argv, doc=self.BIG).stdout == (
            "subsets checked: 18446744073709551616\n"
            "max violation: 2.66454e-15\n"
            "tightest width: 0.2 at {a1}\n"
            "bracket holds: yes\n")
        assert run("--csv", *argv, doc=self.BIG).stdout == (
            "subsets_checked,max_violation,tightest_width,tightest_subset,holds\n"
            "18446744073709551616,0.000000,0.200000,{a1},true\n")

    def test_large_bracket_check_needs_no_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # every `import numpy` fails
        atoms = " ".join(f"a{i}" for i in range(18))
        doc = f"frame w: {atoms}\nstatement s over w: core {{a0 a1 a2}} alpha 0.8\n"
        assert run("check", "s", doc=doc).stdout.splitlines() == [
            "subsets checked: 262144", "max violation: 3.33067e-16", "tightest width: 0.2 at {a0 a1 a2}",
            "bracket holds: yes"]

    def test_check_unknown(self):
        result = run("check", "ghost", expect_exit=1)
        assert "unknown statement 'ghost'" in result.stderr


# an inline statement, up to the value of its --alpha
ALPHA = ["elicit", "--frame", "w", "--core", "{w1}", "--alpha"]


class TestPlumbing:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "result.txt"
        result = run("--out", str(target), "cardinality", "nested")
        assert result.stdout == ""
        assert target.read_text() == "expected cardinality = 1.7\n"

    def test_csv_out_writes_file(self, tmp_path):
        target = tmp_path / "result.csv"
        result = run("--csv", "--out", str(target), "convert", "ramp")
        assert result.stdout == ""
        assert target.read_text() == "subset,weight\n{w1},0.300000\n{w1 w2},0.400000\n{w1 w2 w3},0.300000\n"

    def test_out_dash_is_stdout(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("--out", "-", "cardinality", "nested").stdout == "expected cardinality = 1.7\n"
        assert list(tmp_path.iterdir()) == []  # no file named `-`

    # a name that starts with `-` is an option's value when `=` joins the two; apart, it reads as an option
    def test_name_starting_with_a_dash(self):
        doc = DOC + "prob -x over age: 0.2 0.2 0.2 0.2 0.2\nstatement -s over w: core {w1} alpha 0.5\n"
        assert run("condition", "young", "--prior=-x", doc=doc).stdout.startswith("prob young_posterior over age: ")
        out = run("elicit", "--statement=-s", "--method", "maxent", doc=doc).stdout
        assert out == "prob -s_maxent over w: 0.5 0.25 0.25\n"

    # (document, argv after --doc -, start of the one stderr line); TMP is a fresh
    # directory that must stay empty: --out opens its file only on the first write
    BAD_INPUT = [
        pytest.param(DOC, ["--out", "TMP/x", "classify", "ghost"], "unknown mass 'ghost'",
                     1, id="unknown-name-with-out"),
        pytest.param(b"\xff\xfe\x00bad", ["classify", "m"], "cannot read <stdin>: 'utf-8' codec can't decode",
                     1, id="not-utf8"),
        pytest.param(DOC, ["--out", "TMP/missing/x", "classify", "nested"],
                     "Could not open file 'TMP/missing/x': No such file or directory", 1, id="out-in-missing-dir"),
        pytest.param(DOC, [*ALPHA, "0.8_0"], "argument --alpha: not a number: '0.8_0'", 2, id="underscore-alpha"),
        pytest.param(DOC, [*ALPHA, "\u0660.\u0668"],
                     "argument --alpha: not a number: '\u0660.\u0668'", 2, id="arabic-indic-alpha"),
        pytest.param(DOC, [*ALPHA, "nan"], "confidence nan outside [0, 1]", 1, id="nan-alpha"),
        # an argument that starts like a negative number is the option's value, not an option
        *(pytest.param(DOC, [*ALPHA, alpha], f"confidence {shown} outside [0, 1]", 1, id=f"alpha{alpha}")
          for alpha, shown in [("-inf", "-inf"), ("-nan", "nan"), ("-1e-3", "-0.001"), ("-0.5", "-0.5")]),
        pytest.param(DOC, [*ALPHA, "-\u0661"],
                     "argument --alpha: not a number: '-\u0661'", 2, id="alpha-arabic-indic-negative"),
    ]

    @pytest.mark.parametrize("doc,argv,message,status", BAD_INPUT)
    def test_bad_input_is_one_line(self, tmp_path, doc, argv, message, status):
        argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
        result = run(*argv, doc=doc, expect_exit=status)
        error = result.stderr.splitlines(keepends=True)[-1]  # the usage lines come first on exit 2
        assert error.startswith("Error: " + message.replace("TMP", str(tmp_path)))
        assert len(result.stderr.replace(str(tmp_path), "TMP").encode()) < 200
        assert list(tmp_path.iterdir()) == []

    def test_missing_doc_is_usage_error(self):
        assert credal("classify", "nested").exit_code == 2

    # the runner checks that each is `Usage:` lines and then this one `Error:` line
    @pytest.mark.parametrize("argv,error", [
        ([], "the following arguments are required: --doc, COMMAND"),
        (["--doc", "samples/ages.txt", "query"], "the following arguments are required: measure, name, subset"),
        (["--doc", "samples/ages.txt", "elicit", "--method"], "argument --method: expected one argument"),
        (["--doc", "samples/missing.txt", "classify", "m"],
         "argument --doc: can't open 'samples/missing.txt': No such file or directory"),
        (["--doc", "samples/statement10.txt", "elicit", "--stat", "s1"], "unrecognized arguments: --stat s1"),
        (["--doc", "samples/statement10.txt", "elicit", "--frame", "w10", "--core", "{a b c}", "--alpha", "-x"],
         "argument --alpha: expected one argument"),
        (["--doc", "samples/ages.txt", "condition", "young", "--prior", "-x"],
         "argument --prior: expected one argument")],
        ids=["bare", "query-without-arguments", "option-without-value", "doc-that-will-not-open", "abbreviated-option",
             "option-for-a-value", "name-for-a-value"])
    def test_usage_error_ends_in_its_error_line(self, repo_root, argv, error):
        result = credal(*argv)
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1] == "Error: " + error

    def test_doc_file_path(self, repo_root):
        result = credal("--doc", "samples/horse_race.txt", "cardinality", "horse_leaky")
        assert result.exit_code == 0
        assert result.stdout == "expected cardinality = 2.2\n"

    def test_interrupt_is_one_line(self, monkeypatch):
        def interrupted(**_):
            raise KeyboardInterrupt
        monkeypatch.setitem(COMMANDS, "classify", interrupted)
        assert run("classify", "nested", expect_exit=1).stderr == "Error: interrupted\n"

    # a command that breaks the outcome contract in each way `credal` must refuse
    @pytest.mark.parametrize("fault", [
        lambda **_: {}["ghost"], lambda **_: ([], ["Bel = nan"]), lambda **_: sys.exit(3),
        lambda **_: sys.stderr.write("warning\n") and ([], ["ok"]),
        lambda **_: print("partial") or _get("ghost", ("mass", {}))],
        ids=["traceback", "non-finite", "exit-3", "stderr-on-success", "stdout-on-error"])
    def test_runner_refuses_a_broken_contract(self, monkeypatch, fault):
        monkeypatch.setitem(COMMANDS, "classify", fault)
        with pytest.raises(AssertionError, match=r"^credal \['--doc', '-', 'classify', 'nested'\]"):
            credal("classify", "nested", doc=DOC)


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
                yield "".join(lines[:i] + [swept] + lines[i + 1:])


@pytest.mark.parametrize("session", sorted(REPO_ROOT.glob("samples/*.session")),
                         ids=lambda path: path.stem)
def test_extreme_values_give_finite_output_or_one_error_line(session):
    """Every session command on every swept document ends as `credal` promises: finite stdout, or one error."""
    commands = [argv for _, argv, _ in parse_session(session)]
    [doc_path] = {argv[1] for argv in commands}
    documents = list(swept_documents((REPO_ROOT / doc_path).read_text()))
    assert documents
    for doc in documents:
        for argv in commands:
            credal(*argv[2:], doc=doc)


class TestStartup:
    """`python -m credal.cli` in a fresh interpreter, as a user runs it."""

    @staticmethod
    def python(*args: str, stdout=subprocess.PIPE, preexec_fn=None) -> subprocess.CompletedProcess:
        # buffered stdout, as users and CI runners have it, whatever this test process was given
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run([sys.executable, *args], cwd=REPO_ROOT, env=env, input="", stdout=stdout,
                              stderr=subprocess.PIPE, preexec_fn=preexec_fn, text=True, timeout=60)

    # no command needs numpy (the in-process runs block it); the value classes generate no code at import;
    # the command line is built on the standard library
    @pytest.mark.parametrize("module", ["numpy", "dataclasses", "click"])
    def test_import_leaves_unloaded(self, module):
        result = self.python("-c", f"import sys, credal.cli; print({module!r} in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_library_import_adds_no_typing(self):
        # without `site`, which may load `typing` itself; a stdlib whose `re`, `enum` or `argparse` loads it
        # excuses credal
        probe = "; import sys; print('typing' in sys.modules)"
        pairs = [("import credal", "import re, enum"), ("import credal.cli", "import re, enum, argparse")]
        for ours, baseline in pairs:
            results = [self.python("-S", "-c", imports + probe) for imports in (ours, baseline)]
            assert [r.returncode for r in results] == [0, 0], [r.stderr for r in results]
            assert results[0].stdout == results[1].stdout, ours

    def test_bracket_check_prints_the_transcript(self):
        argv = "--doc samples/statement10.txt --csv check s1"
        [expected] = [out for line, _, out in parse_session(REPO_ROOT / "samples/statement10.session")
                      if line == f"credal {argv}"]
        result = self.python("-m", "credal.cli", *shlex.split(argv))
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected

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

    @pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor before the interpreter starts")
    @pytest.mark.parametrize("fd,argv,error", [
        (0, ["--doc", "-", "classify", "m"], "cannot read <stdin>: Bad file descriptor"),
        (1, ["--doc", "samples/horse_race.txt", "classify", "horse_leaky"],
         "cannot write the output: Bad file descriptor")],
        ids=["stdin", "stdout"])
    def test_closed_standard_stream_is_one_line(self, fd, argv, error):
        # as `credal ... <&-` or `>&-`: the interpreter starts without the descriptor, so `sys.stdin` or
        # `sys.stdout` is None, and print() to None prints nothing
        result = self.python("-m", "credal.cli", *argv, stdout=None, preexec_fn=lambda: os.close(fd))
        assert result.returncode == 1
        assert result.stderr == f"Error: {error}\n"
