"""Command-line front end over the document format.

All commands read the objects named on the command line from the document
given with --doc, run one operation, and print a deterministic result:
human-readable lines by default, CSV with --csv, to stdout or to --out.
Numeric text output uses 6 significant digits, except that a declaring
line uses `repr` digits wherever 6 digits would not read back; CSV cells
use 6 fixed decimals for golden-file stability. Errors are one-line
diagnostics with a nonzero exit status, never stack traces: exit status 1,
or 2 after the usage for a command line the parser refuses.
"""

from __future__ import annotations

import errno
import os
import re
import sys
from argparse import ArgumentError, ArgumentParser, ArgumentTypeError, HelpFormatter

from .document import Document, _declaration, _number, hnum, parse_document
from .elicit import BracketReport, VagueStatement, bracket_check, maxent_distribution, minspec_mass
from .errors import CredalError, ValidationError
from .evidence import MassFunction, ProbabilityDistribution
from .frames import parse_subset
from .fuzzy import FuzzySet, bayes_fuzzy_condition, possibilistic_condition
from .possibility import PossibilityDistribution, consonant_approximate, contour

TYPE_CHECKING = False  # not `typing.TYPE_CHECKING`: importing `typing` would slow every start-up
if TYPE_CHECKING:
    from collections.abc import Sequence
    from typing import NoReturn, TextIO

#: What every command returns: its CSV lines and its human-readable lines.
Rendered = tuple[list[str], list[str]]


def cnum(v: float) -> str:
    """CSV cell number: fixed 6 decimals."""
    return format(v, ".6f")


def _get(name: str, *tables: tuple[str, dict]):
    """The object `name` names in exactly one of the (kind, table) pairs."""
    found = [(kind, table[name]) for kind, table in tables if name in table]
    if not found:
        raise CredalError(f"unknown {' or '.join(kind for kind, _ in tables)} {name!r}")
    if len(found) > 1:
        raise CredalError(f"{name!r} names both a {found[0][0]} and a {found[1][0]}; rename one of them")
    return found[0][1]


def _mass_like(doc: Document, name: str) -> MassFunction:
    """Resolve a name against masses, then probability distributions."""
    found = _get(name, ("mass", doc.masses), ("prob", doc.probs))
    return found.as_mass() if isinstance(found, ProbabilityDistribution) else found


def query(doc: Document, measure: str, name: str, subset_text: str) -> Rendered:
    """Evaluate one measure of one object on a subset literal like '{w1 w2}'."""
    if measure in ("Bel", "Pl"):
        mass = _mass_like(doc, name)
        subset = parse_subset(mass.frame, subset_text)
        value = mass.belief(subset) if measure == "Bel" else mass.plausibility(subset)
    else:
        pi = _get(name, ("pi", doc.pis))
        subset = parse_subset(pi.frame, subset_text)
        value = pi.possibility_of(subset) if measure == "Pi" else pi.necessity_of(subset)
    return (["measure,object,subset,value", f"{measure},{name},{subset},{cnum(value)}"],
            [f"{measure} = {hnum(value)}"])


def convert(doc: Document, name: str) -> Rendered:
    """Convert between a possibility distribution and its consonant mass."""
    found = _get(name, ("pi", doc.pis), ("mass", doc.masses))
    if isinstance(found, PossibilityDistribution):
        mass = found.as_mass()
        return (["subset,weight"] + [f"{s},{cnum(w)}" for s, w in mass.focal_elements()],
                _declaration(doc, f"{name}_mass", mass))
    if "consonant" not in found.classify().labels:
        raise CredalError(f"mass {name!r} is not consonant; use approx for dissonant evidence")
    pi = contour(found)
    return (["atom,value"] + [f"{a},{cnum(v)}" for a, v in zip(pi.frame.atoms, pi.values)],
            _declaration(doc, f"{name}_pi", pi))


def approx(doc: Document, name: str) -> Rendered:
    """Consonant approximation of a mass via its contour, with a consistency report."""
    pi, report = consonant_approximate(_get(name, ("mass", doc.masses)))
    flag = "true" if report.consistent else "false"
    rows = ["atom,pi,consistent,subnormalization"]
    rows += [
        f"{a},{cnum(v)},{flag},{cnum(report.subnormalization)}"
        for a, v in zip(pi.frame.atoms, pi.values)
    ]
    lines = _declaration(doc, f"{name}_approx", pi)
    if report.consistent:
        lines.append("# consistent: true")
    else:
        lines.append(
            f"# consistent: false (subnormalization {hnum(report.subnormalization)})"
        )
    return rows, lines


def condition(doc: Document, name: str, prior: str | None) -> Rendered:
    """Condition on a fuzzy event: possibilistic without a prior, Bayesian with one."""
    f: FuzzySet = _get(name, ("fuzzy set", doc.fuzzies))
    atoms = f.scale.frame.atoms
    if prior is not None:
        posterior = bayes_fuzzy_condition(_get(prior, ("prob", doc.probs)), f)
        return (["point,p"] + [f"{a},{cnum(v)}" for a, v in zip(atoms, posterior.values)],
                _declaration(doc, f"{name}_posterior", posterior))
    result = possibilistic_condition(f)
    rows = ["point,pi,certainty"]
    rows += [
        f"{a},{cnum(v)},{cnum(c)}"
        for a, v, c in zip(atoms, result.pi.values, result.certainty)
    ]
    return rows, _declaration(doc, f"{name}_pi", result.pi) + [
        "# certainty: " + " ".join(hnum(c) for c in result.certainty)]


def _bracket_lines(report: BracketReport) -> Rendered:
    return [
        "subsets_checked,max_violation,tightest_width,tightest_subset,holds",
        f"{report.subsets_checked},{cnum(report.max_violation)},"
        f"{cnum(report.tightest_width)},{report.tightest_subset},"
        f"{'true' if report.holds else 'false'}",
    ], [
        f"subsets checked: {report.subsets_checked}",
        f"max violation: {hnum(report.max_violation)}",
        f"tightest width: {hnum(report.tightest_width)} at {report.tightest_subset}",
        f"bracket holds: {'yes' if report.holds else 'no'}",
    ]


def _statement_outputs(doc: Document, name: str, statement: VagueStatement,
                       method: str) -> Rendered:
    rows = ["part,key,value"]
    lines: list[str] = []
    if method in ("maxent", "both"):
        p = maxent_distribution(statement)
        rows += [f"p,{a},{cnum(v)}" for a, v in zip(p.frame.atoms, p.values)]
        lines += _declaration(doc, f"{name}_maxent", p)
    if method in ("minspec", "both"):
        mass, pi = minspec_mass(statement)
        rows += [f"focal,{s},{cnum(w)}" for s, w in mass.focal_elements()]
        rows += [f"pi,{a},{cnum(v)}" for a, v in zip(pi.frame.atoms, pi.values)]
        lines += _declaration(doc, f"{name}_minspec", mass) + _declaration(doc, f"{name}_minspec_pi", pi)
    return rows, lines


def elicit(doc: Document, statement: str | None, frame: str | None, core: str | None,
           alpha: float | None, method: str) -> Rendered:
    """Represent a vague 'probably in CORE' statement as committed models."""
    inline = [frame, core, alpha]
    if statement is not None:
        if any(v is not None for v in inline):
            raise ArgumentError(None, "--statement excludes --frame/--core/--alpha")
        name, vague = statement, _get(statement, ("statement", doc.statements))
    else:
        if any(v is None for v in inline):
            raise ArgumentError(None, "give either --statement or all of --frame, --core, --alpha")
        name, vague = "elicited", VagueStatement(parse_subset(doc.frame_named(frame), core), alpha)
    if method == "check":
        return _bracket_lines(bracket_check(vague))
    return _statement_outputs(doc, name, vague, method)


def triangle(doc: Document, name: str, subset_text: str) -> Rendered:
    """Locate a proposition in the uncertainty triangle; always emits one CSV row."""
    mass = _mass_like(doc, name)
    subset = parse_subset(mass.frame, subset_text)
    point = mass.triangle_point(subset)
    ignorance = "" if point.ignorance is None else cnum(point.ignorance)
    row = [f"{name},{cnum(point.x)},{cnum(point.y)},{point.region.code},{ignorance}"]
    return row, row


def cardinality(doc: Document, name: str) -> Rendered:
    """Expected focal cardinality of a mass (its imprecision)."""
    value = _get(name, ("mass", doc.masses)).expected_cardinality()
    return (["mass,expected_cardinality", f"{name},{cnum(value)}"],
            [f"expected cardinality = {hnum(value)}"])


def classify(doc: Document, name: str) -> Rendered:
    """Structural classification of a mass function."""
    result = _get(name, ("mass", doc.masses)).classify()
    labels = sorted(result.labels)
    return (["mass,tag,labels", f"{name},{result.tag},{' '.join(labels)}"],
            [f"classification = {result.tag} (labels: {', '.join(labels)})"])


def check(doc: Document, name: str) -> Rendered:
    """Verify the belief/plausibility bracket of a statement on every subset."""
    return _bracket_lines(bracket_check(_get(name, ("statement", doc.statements))))


#: Every command by name; the parser dispatches through this table.
COMMANDS = {command.__name__: command for command in (
    query, convert, approx, condition, elicit, triangle, cardinality, classify, check)}


# an argument that starts like a negative number (`-1e-3`, `-.5`, `-inf`, `-nan`) is a value, which `_number`
# then reads; argparse's own pattern takes only whole `-1` and `-.5` forms, so `--alpha -1e-3` lacked its value
_NEGATIVE_NUMBER = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(ArgumentParser):
    """A credal parser: no abbreviated options; a usage error is `Usage:` lines, one `Error:` line, status 2.

    Help and usage wrap at 80 columns whatever the terminal, so a usage error reads the same everywhere.
    An argument that starts like a negative number is a value, not an option.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs, allow_abbrev=False,
                         formatter_class=lambda prog: HelpFormatter(prog, width=80))
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> NoReturn:
        self.exit(2, self.format_usage().replace("usage: ", "Usage: ", 1) + f"Error: {message}\n")


def _ascii_number(token: str) -> float:
    """An option's number, read as the document reads its numbers: ASCII, no `_` digit separators."""
    try:
        return _number(token)
    except ValidationError as exc:
        raise ArgumentTypeError(str(exc)) from None


def _parser(prog: str) -> tuple[_Parser, dict[str, _Parser]]:
    """The `credal` parser and, by command name, the parser of each command's own arguments."""
    parser = _Parser(prog=prog, description=(
        "Query and transform bodies of evidence, possibility distributions, and vague statements."))
    parser.add_argument("--doc", required=True, metavar="FILE", help="Document to read (- for stdin).")
    parser.add_argument("--csv", action="store_true", help="Emit machine-readable CSV.")
    parser.add_argument("--out", metavar="PATH",
                        help="Write output to a file instead of stdout (- for stdout).")
    subparsers = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    commands = {name: subparsers.add_parser(name, help=command.__doc__, description=command.__doc__)
                for name, command in COMMANDS.items()}
    commands["query"].add_argument("measure", choices=("Bel", "Pl", "Pi", "N"))
    for name in COMMANDS.keys() - {"elicit"}:  # elicit names its statement with an option
        commands[name].add_argument("name")
    for name in ("query", "triangle"):
        commands[name].add_argument("subset_text", metavar="subset")
    commands["condition"].add_argument(
        "--prior", metavar="NAME", help="Condition a prior on the fuzzy event instead of assuming ignorance.")
    elicit = commands["elicit"]
    elicit.add_argument("--statement", metavar="NAME", help="Use a statement declared in the document.")
    elicit.add_argument("--frame", metavar="NAME", help="Frame for an inline statement.")
    elicit.add_argument("--core", metavar="SUBSET", help="Core subset literal, e.g. '{a b c}'.")
    elicit.add_argument("--alpha", type=_ascii_number, help="Confidence bound in [0, 1].")
    elicit.add_argument("--method", choices=("maxent", "minspec", "both", "check"), default="both",
                        metavar="METHOD", help="maxent, minspec, both, or check (default: %(default)s).")
    return parser, commands


def _stream(stream: TextIO | None) -> TextIO:
    """A standard stream, or for one the process started without, the error using it would raise."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _read(path: str, parser: _Parser) -> str:
    """The text of the document at `path`, or on stdin for `-`; a file that will not open is a usage error."""
    from_file = path != "-"
    try:
        source = open(path) if from_file else sys.stdin
    except OSError as exc:
        parser.error(f"argument --doc: can't open '{path}': {exc.strerror}")
    name = path if from_file else "<stdin>"
    try:
        return _stream(source).read()
    except OSError as exc:
        raise CredalError(f"cannot read {name}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise CredalError(f"cannot read {name}: {exc}") from exc
    finally:
        if from_file:
            source.close()


def _write(text: str, path: str | None) -> None:
    """Print `text` to the file at `path`, opened only now, or to stdout for no path or `-`."""
    to_file = path not in (None, "-")
    try:
        out = open(path, "w") if to_file else sys.stdout
    except OSError as exc:
        raise CredalError(f"Could not open file '{path}': {exc.strerror}") from exc
    try:
        try:
            print(text, file=_stream(out), flush=True)
        finally:
            if to_file:
                out.close()  # a full disk may show only when the file is flushed on close
    except OSError as exc:
        if out is sys.stdout is not None:
            # the text stays buffered: let the interpreter's final flush write it nowhere, not fail (status 120)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, out.fileno())
            os.close(null)
        raise CredalError(f"cannot write the output: {exc.strerror}") from exc


def _run(args: Sequence[str], prog: str) -> int:
    """Run one command line; return its exit status, or exit with status 2 on a usage error."""
    parser, commands = _parser(prog)
    options = vars(parser.parse_args(args))
    command, path, as_csv, out = (options.pop(key) for key in ("command", "doc", "csv", "out"))
    try:
        doc = parse_document(_read(path, parser))
        csv_lines, human_lines = COMMANDS[command](doc=doc, **options)
        _write("\n".join(csv_lines if as_csv else human_lines), out)
    except ArgumentError as exc:
        commands[command].error(str(exc))
    except CredalError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # say, Ctrl-C while `--doc -` waits on a terminal
        print("Error: interrupted", file=sys.stderr)
        return 1
    return 0


class _Main:
    """The `credal` command: `main()` runs `sys.argv` and `main.main(args)` runs `args`, each to its exit.

    `main.main(args, prog_name=None)` and `name` are the calling convention of
    `CliRunner.invoke`, through which the benchmark replays commands in process.
    They stay until ROADMAP item 5 moves that replay to the trace line.
    """

    name = "credal"

    def __call__(self) -> NoReturn:
        self.main(sys.argv[1:])

    def main(self, args: Sequence[str], prog_name: str | None = None) -> NoReturn:
        sys.exit(_run(args, prog_name or self.name))


main = _Main()


if __name__ == "__main__":
    main()
