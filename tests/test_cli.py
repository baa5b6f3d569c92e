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


# a name that starts with `-` is an option's value when `=` joins the two; apart, it reads as an option
DASHED = DOC + "prob -x over age: 0.2 0.2 0.2 0.2 0.2\nstatement -s over w: core {w1} alpha 0.5\n"
BIG = "frame big: {}\nstatement s over big: core {{a0 a5}} alpha 0.8\n".format(
    " ".join(f"a{i}" for i in range(64)))
RAMP_MASS = "mass ramp_mass over w:\n  {w1} 0.3\n  {w1 w2} 0.4\n  {w1 w2 w3} 0.3\n"
POSTERIOR = ("prob young_posterior over age: 0.3333333333333333 0.3333333333333333 0.22222222222222224 "
             "0.11111111111111112 0.0\n")
BRACKET_CSV = "subsets_checked,max_violation,tightest_width,tightest_subset,holds\n"
LIKELY_CHECK = "subsets checked: 8\nmax violation: 0\ntightest width: 0.1 at {w1 w2}\nbracket holds: yes\n"
LIKELY_CHECK_CSV = BRACKET_CSV + "8,0.000000,0.100000,{w1 w2},true\n"
BIG_CHECK = ("subsets checked: 18446744073709551616\nmax violation: 2.66454e-15\ntightest width: 0.2 at {a1}\n"
             "bracket holds: yes\n")
BIG_CHECK_CSV = BRACKET_CSV + "18446744073709551616,0.000000,0.200000,{a1},true\n"
NESTED_TRIANGLE = "nested,0.500000,0.000000,possibilistic-axes,\n"
# the middle of three outcomes under an even two-way bet and under silence
HORSES = "frame horses: a nab nb\nprob book over horses: 0.5 0.0 0.5\nmass silence over horses:\n  {a nab nb} 1.0\n"
# the three canonical states of knowledge about one of two outcomes
PAIR = ("frame pair: a b\nmass m_vacuous over pair:\n  {a b} 1.0\nprob p_half over pair: 0.5 0.5\n"
        "mass m_interior over pair:\n  {a} 0.2\n  {b} 0.2\n  {a b} 0.6\n")

# Each pinned command output, once: (id, document or None for no `--doc -`, argv, the whole stdout); every row
# runs from the repository root
OUTPUTS = [
    ("query-bel", DOC, ["query", "Bel", "nested", "{w1 w2}"], "Bel = 0.8\n"),
    ("query-pl-of-prob", DOC, ["query", "Pl", "flat", "{w2 w3}"], "Pl = 0.8\n"),
    ("query-pi", DOC, ["query", "Pi", "ramp", "{w2 w3}"], "Pi = 0.7\n"),
    ("query-n", DOC, ["query", "N", "ramp", "{w1}"], "N = 0.3\n"),
    ("query-csv", DOC, ["--csv", "query", "N", "ramp", "{w1}"], "measure,object,subset,value\nN,ramp,{w1},0.300000\n"),
    # the bet leaves the middle no room, and silence leaves it wide open
    ("query-bel-of-bet", HORSES, ["query", "Bel", "book", "{nab}"], "Bel = 0\n"),
    ("query-pl-of-bet", HORSES, ["query", "Pl", "book", "{nab}"], "Pl = 0\n"),
    ("query-bel-of-silence", HORSES, ["query", "Bel", "silence", "{nab}"], "Bel = 0\n"),
    ("query-pl-of-silence", HORSES, ["query", "Pl", "silence", "{nab}"], "Pl = 1\n"),
    ("convert-pi-to-mass", DOC, ["convert", "ramp"], RAMP_MASS),
    ("convert-mass-to-pi", DOC, ["convert", "nested"], "pi nested_pi over w: 1 0.5 0.2\n"),
    # the block written by `convert ramp`, read back in and converted again
    ("convert-written-block", "frame w: w1 w2 w3\n" + RAMP_MASS, ["convert", "ramp_mass"],
     "pi ramp_mass_pi over w: 1 0.7 0.3\n"),
    ("convert-csv-pi-to-mass", DOC, ["--csv", "convert", "ramp"],
     "subset,weight\n{w1},0.300000\n{w1 w2},0.400000\n{w1 w2 w3},0.300000\n"),
    ("convert-csv-mass-to-pi", DOC, ["--csv", "convert", "nested"],
     "atom,value\nw1,1.000000\nw2,0.500000\nw3,0.200000\n"),
    ("approx-consistent", DOC, ["approx", "nested"], "pi nested_approx over w: 1 0.5 0.2\n# consistent: true\n"),
    ("approx-subnormal", "frame w: w1 w2\nmass split over w:\n  {w1} 0.5\n  {w2} 0.5\n", ["approx", "split"],
     "pi split_approx over w: 1 1\n# consistent: false (subnormalization 0.5)\n"),
    ("approx-csv", DOC, ["--csv", "approx", "nested"],
     "atom,pi,consistent,subnormalization\n"
     "w1,1.000000,true,1.000000\nw2,0.500000,true,1.000000\nw3,0.200000,true,1.000000\n"),
    ("condition-possibilistic", DOC, ["condition", "young"],
     "pi young_pi over age: 1 1 0.666667 0.333333 0\n# certainty: 0 0 0 0 0\n"),
    ("condition-prior", DOC, ["condition", "young", "--prior", "ages"], POSTERIOR),
    ("condition-csv", DOC, ["--csv", "condition", "young"],
     "point,pi,certainty\n20,1.000000,0.000000\n21,1.000000,0.000000\n22,0.666667,0.000000\n"
     "23,0.333333,0.000000\n24,0.000000,0.000000\n"),
    ("condition-dashed-prior", DASHED, ["condition", "young", "--prior=-x"], POSTERIOR),
    ("elicit-both", DOC, ["elicit", "--statement", "likely"],
     "prob likely_maxent over w: 0.45 0.45 0.1\n"
     "mass likely_minspec over w:\n  {w1 w2} 0.9\n  {w1 w2 w3} 0.1\n"
     "pi likely_minspec_pi over w: 1 1 0.1\n"),
    ("elicit-inline", DOC, ["elicit", "--frame", "w", "--core", "{w3}", "--alpha", "1.0", "--method", "maxent"],
     "prob elicited_maxent over w: 0 0 1\n"),
    ("elicit-dashed-statement", DASHED, ["elicit", "--statement=-s", "--method", "maxent"],
     "prob -s_maxent over w: 0.5 0.25 0.25\n"),
    ("elicit-check", DOC, ["elicit", "--statement", "likely", "--method", "check"], LIKELY_CHECK),
    ("elicit-csv-check", DOC, ["--csv", "elicit", "--statement", "likely", "--method", "check"], LIKELY_CHECK_CSV),
    ("elicit-csv-both", DOC, ["--csv", "elicit", "--statement", "likely"],
     "part,key,value\np,w1,0.450000\np,w2,0.450000\np,w3,0.100000\n"
     "focal,{w1 w2},0.900000\nfocal,{w1 w2 w3},0.100000\n"
     "pi,w1,1.000000\npi,w2,1.000000\npi,w3,0.100000\n"),
    ("elicit-csv-maxent", DOC, ["--csv", "elicit", "--statement", "likely", "--method", "maxent"],
     "part,key,value\np,w1,0.450000\np,w2,0.450000\np,w3,0.100000\n"),
    ("elicit-check-64-atoms", BIG, ["elicit", "--statement", "s", "--method", "check"], BIG_CHECK),
    ("elicit-csv-check-64-atoms", BIG, ["--csv", "elicit", "--statement", "s", "--method", "check"], BIG_CHECK_CSV),
    ("triangle", DOC, ["triangle", "nested", "{w1}"], NESTED_TRIANGLE),
    ("triangle-csv", DOC, ["--csv", "triangle", "nested", "{w1}"], NESTED_TRIANGLE),
    ("triangle-prob", DOC, ["triangle", "flat", "{w1}"], "flat,0.200000,0.800000,probabilistic-edge,\n"),
    ("triangle-vacuous", PAIR, ["triangle", "m_vacuous", "{a}"], "m_vacuous,0.000000,0.000000,O,1.000000\n"),
    ("triangle-even-odds", PAIR, ["triangle", "p_half", "{a}"],
     "p_half,0.500000,0.500000,probabilistic-edge,0.000000\n"),
    ("triangle-interior", PAIR, ["triangle", "m_interior", "{a}"], "m_interior,0.200000,0.200000,interior,0.600000\n"),
    ("cardinality", DOC, ["cardinality", "nested"], "expected cardinality = 1.7\n"),
    ("cardinality-csv", DOC, ["--csv", "cardinality", "nested"], "mass,expected_cardinality\nnested,1.700000\n"),
    ("cardinality-doc-file", None, ["--doc", "samples/horse_race.txt", "cardinality", "horse_leaky"],
     "expected cardinality = 2.2\n"),
    ("classify", DOC, ["classify", "nested"], "classification = consonant (labels: consonant)\n"),
    ("classify-csv", DOC, ["--csv", "classify", "torn"], "mass,tag,labels\ntorn,general,general\n"),
    ("check", DOC, ["check", "likely"], LIKELY_CHECK),
    ("check-csv", DOC, ["--csv", "check", "likely"], LIKELY_CHECK_CSV),
    ("check-64-atoms", BIG, ["check", "s"], BIG_CHECK),
    ("check-csv-64-atoms", BIG, ["--csv", "check", "s"], BIG_CHECK_CSV),
    # a bracket check over 2^18 subsets, which needs no numpy either
    ("check-18-atoms", "frame w: {}\nstatement s over w: core {{a0 a1 a2}} alpha 0.8\n".format(
        " ".join(f"a{i}" for i in range(18))), ["check", "s"],
     "subsets checked: 262144\nmax violation: 3.33067e-16\ntightest width: 0.2 at {a0 a1 a2}\nbracket holds: yes\n"),
]


@pytest.mark.parametrize("doc,argv,stdout", [pytest.param(*row, id=name) for name, *row in OUTPUTS])
def test_output(repo_root, monkeypatch, doc, argv, stdout):
    monkeypatch.setitem(sys.modules, "numpy", None)  # every `import numpy` fails, as in the session replay
    result = credal(*argv, doc=doc)
    assert result.exit_code == 0
    assert result.stdout == stdout


# an inline statement, up to the value of its --alpha
ALPHA = ["elicit", "--frame", "w", "--core", "{w1}", "--alpha"]

# Each pinned refusal, once: (id, document or None for no `--doc -`, argv, exit status, the last stderr
# line after `Error: `); exit 1 prints that line alone, exit 2 the usage first. TMP is a fresh directory that
# stays empty: --out opens its file only on the first write
ERRORS = [
    ("query-unknown-object", DOC, ["query", "Bel", "ghost", "{w1}"], 1, "unknown mass or prob 'ghost'"),
    ("query-mass-and-prob", "frame w: a b\nmass x over w:\n  {a} 1\nprob x over w: 0.5 0.5\n",
     ["query", "Bel", "x", "{a}"], 1, "'x' names both a mass and a prob; rename one of them"),
    ("query-pi-of-mass", DOC, ["query", "Pi", "nested", "{w1}"], 1, "unknown pi 'nested'"),
    ("query-unknown-label", DOC, ["query", "Bel", "nested", "{w9}"], 1, "unknown label 'w9'"),
    ("query-bad-measure", DOC, ["query", "Q", "nested", "{w1}"], 2,
     "argument measure: invalid choice: 'Q' (choose from 'Bel', 'Pl', 'Pi', 'N')"),
    ("convert-dissonant", DOC, ["convert", "torn"], 1,
     "mass 'torn' is not consonant; use approx for dissonant evidence"),
    ("convert-pi-and-mass", "frame w: a b\nmass x over w:\n  {a} 1\npi x over w: 1 0.5\n", ["convert", "x"], 1,
     "'x' names both a pi and a mass; rename one of them"),
    ("convert-unknown", DOC, ["convert", "ghost"], 1, "unknown pi or mass 'ghost'"),
    ("approx-of-prob", DOC, ["approx", "flat"], 1, "unknown mass 'flat'"),
    ("condition-unknown-prior", DOC, ["condition", "young", "--prior", "ghost"], 1, "unknown prob 'ghost'"),
    ("condition-unknown-fuzzy", DOC, ["condition", "old"], 1, "unknown fuzzy set 'old'"),
    ("elicit-statement-and-inline", DOC, ["elicit", "--statement", "likely", "--alpha", "0.5"], 2,
     "--statement excludes --frame/--core/--alpha"),
    ("elicit-inline-incomplete", DOC, ["elicit", "--frame", "w", "--core", "{w1}"], 2,
     "give either --statement or all of --frame, --core, --alpha"),
    ("elicit-unknown-statement", DOC, ["elicit", "--statement", "ghost"], 1, "unknown statement 'ghost'"),
    ("triangle-empty-subset", DOC, ["triangle", "nested", "{}"], 1,
     "triangle point requires a contingent proposition (not empty, not full)"),
    ("check-unknown", DOC, ["check", "ghost"], 1, "unknown statement 'ghost'"),
    ("unknown-name-with-out", DOC, ["--out", "TMP/x", "classify", "ghost"], 1, "unknown mass 'ghost'"),
    ("not-utf8", b"\xff\xfe\x00bad", ["classify", "m"], 1,
     "cannot read <stdin>: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("out-in-missing-dir", DOC, ["--out", "TMP/missing/x", "classify", "nested"], 1,
     "Could not open file 'TMP/missing/x': No such file or directory"),
    ("underscore-alpha", DOC, [*ALPHA, "0.8_0"], 2, "argument --alpha: not a number: '0.8_0'"),
    ("arabic-indic-alpha", DOC, [*ALPHA, "\u0660.\u0668"], 2, "argument --alpha: not a number: '\u0660.\u0668'"),
    ("nan-alpha", DOC, [*ALPHA, "nan"], 1, "confidence nan outside [0, 1]"),
    # an argument that starts like a negative number is the option's value, not an option
    *((f"alpha{alpha}", DOC, [*ALPHA, alpha], 1, f"confidence {shown} outside [0, 1]")
      for alpha, shown in [("-inf", "-inf"), ("-nan", "nan"), ("-1e-3", "-0.001"), ("-0.5", "-0.5")]),
    ("alpha-arabic-indic-negative", DOC, [*ALPHA, "-\u0661"], 2, "argument --alpha: not a number: '-\u0661'"),
    ("missing-doc", None, ["classify", "nested"], 2, "the following arguments are required: --doc"),
    ("bare", None, [], 2, "the following arguments are required: --doc, COMMAND"),
    ("query-without-arguments", None, ["--doc", "samples/ages.txt", "query"], 2,
     "the following arguments are required: measure, name, subset"),
    ("option-without-value", None, ["--doc", "samples/ages.txt", "elicit", "--method"], 2,
     "argument --method: expected one argument"),
    ("doc-that-will-not-open", None, ["--doc", "samples/missing.txt", "classify", "m"], 2,
     "argument --doc: can't open 'samples/missing.txt': No such file or directory"),
    ("abbreviated-option", None, ["--doc", "samples/statement10.txt", "elicit", "--stat", "s1"], 2,
     "unrecognized arguments: --stat s1"),
    ("option-for-a-value", None,
     ["--doc", "samples/statement10.txt", "elicit", "--frame", "w10", "--core", "{a b c}", "--alpha", "-x"], 2,
     "argument --alpha: expected one argument"),
    ("name-for-a-value", None, ["--doc", "samples/ages.txt", "condition", "young", "--prior", "-x"], 2,
     "argument --prior: expected one argument"),
]


@pytest.mark.parametrize("doc,argv,status,error", [pytest.param(*row, id=name) for name, *row in ERRORS])
def test_error(repo_root, tmp_path, doc, argv, status, error):
    result = credal(*(arg.replace("TMP", str(tmp_path)) for arg in argv), doc=doc)
    assert result.exit_code == status
    stderr = result.stderr.replace(str(tmp_path), "TMP")
    assert stderr.splitlines()[-1] == "Error: " + error
    assert len(stderr.encode()) < 200
    assert list(tmp_path.iterdir()) == []


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
