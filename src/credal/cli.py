"""Command-line front end over the document format.

All commands read the objects named on the command line from the document
given with --doc, run one operation, and print a deterministic result:
human-readable lines by default, CSV with --csv, to stdout or to --out.
Numeric text output uses 6 significant digits; CSV cells use 6 fixed
decimals for golden-file stability. Errors are one-line diagnostics with a
nonzero exit status, never stack traces.
"""

from __future__ import annotations

from typing import TextIO

import click

from .document import Document, _number, parse_document
from .elicit import BracketReport, VagueStatement, bracket_check, maxent_distribution, minspec_mass
from .errors import CredalError, ValidationError
from .evidence import MassFunction, ProbabilityDistribution
from .frames import Frame, parse_subset
from .fuzzy import FuzzySet, bayes_fuzzy_condition, possibilistic_condition
from .possibility import PossibilityDistribution, consonant_approximate, contour

#: What every command returns: its CSV lines and its human-readable lines.
Rendered = tuple[list[str], list[str]]


def hnum(v: float) -> str:
    """Human-readable number: 6 significant digits, no trailing zeros."""
    return format(v, ".6g")


def cnum(v: float) -> str:
    """CSV cell number: fixed 6 decimals."""
    return format(v, ".6f")


class _Number(click.ParamType):
    """A number option read as the document reads its numbers: ASCII, no `_` digit separators."""

    name = "float"

    def convert(self, value, param, ctx) -> float:
        try:
            return _number(value)
        except ValidationError as exc:
            self.fail(str(exc), param, ctx)


class _CredalGroup(click.Group):
    """Shows a CredalError raised by any command as a one-line diagnostic, exit status 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except CredalError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_CredalGroup)
@click.option("--doc", "doc_file", required=True, type=click.File("r"),
              help="Document to read (- for stdin).")
@click.option("--csv", "as_csv", is_flag=True, help="Emit machine-readable CSV.")
@click.option("--out", "out_file", type=click.File("w"), default=None,
              help="Write output to a file instead of stdout.")
@click.pass_context
def main(ctx: click.Context, doc_file: TextIO, **_) -> None:
    """Query and transform bodies of evidence, possibility distributions, and vague statements."""
    try:
        text = doc_file.read()
    except UnicodeDecodeError as exc:
        raise click.ClickException(f"cannot read {doc_file.name}: {exc}") from exc
    ctx.obj = parse_document(text)


@main.result_callback()
@click.pass_context
def _emit(ctx: click.Context, rendered: Rendered, as_csv: bool, out_file: TextIO | None, **_) -> None:
    """Print the command's CSV lines under --csv and its human lines otherwise."""
    csv_lines, human_lines = rendered
    try:
        try:
            click.echo("\n".join(csv_lines if as_csv else human_lines), file=out_file)
        finally:
            ctx.close()  # closes --out now: a full disk may show only when it is flushed on close
    except OSError as exc:
        raise click.ClickException(f"cannot write the output: {exc.strerror}") from exc


def _get(name: str, *tables: tuple[str, dict]):
    """The object `name` names in exactly one of the (kind, table) pairs."""
    found = [(kind, table[name]) for kind, table in tables if name in table]
    if not found:
        raise click.ClickException(f"unknown {' or '.join(kind for kind, _ in tables)} {name!r}")
    if len(found) > 1:
        raise click.ClickException(
            f"{name!r} names both a {found[0][0]} and a {found[1][0]}; rename one of them"
        )
    return found[0][1]


def _mass_like(doc: Document, name: str) -> MassFunction:
    """Resolve a name against masses, then probability distributions."""
    found = _get(name, ("mass", doc.masses), ("prob", doc.probs))
    return found.as_mass() if isinstance(found, ProbabilityDistribution) else found


def _render_mass_block(doc: Document, name: str, mass: MassFunction) -> list[str]:
    lines = [f"mass {name} over {doc.frame_name(mass.frame)}:"]
    for subset, weight in mass.focal_elements():
        lines.append(f"  {subset} {hnum(weight)}")
    return lines


def _render_values_line(kind: str, doc: Document, name: str, frame: Frame,
                        values: tuple[float, ...]) -> str:
    body = " ".join(hnum(v) for v in values)
    return f"{kind} {name} over {doc.frame_name(frame)}: {body}"


@main.command()
@click.argument("measure", type=click.Choice(["Bel", "Pl", "Pi", "N"]))
@click.argument("name")
@click.argument("subset_text", metavar="SUBSET")
@click.pass_obj
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


@main.command()
@click.argument("name")
@click.pass_obj
def convert(doc: Document, name: str) -> Rendered:
    """Convert between a possibility distribution and its consonant mass."""
    found = _get(name, ("pi", doc.pis), ("mass", doc.masses))
    if isinstance(found, PossibilityDistribution):
        mass = found.as_mass()
        return (["subset,weight"] + [f"{s},{cnum(w)}" for s, w in mass.focal_elements()],
                _render_mass_block(doc, f"{name}_mass", mass))
    if "consonant" not in found.classify().labels:
        raise click.ClickException(
            f"mass {name!r} is not consonant; use approx for dissonant evidence"
        )
    pi = contour(found)
    return (["atom,value"] + [f"{a},{cnum(v)}" for a, v in zip(pi.frame.atoms, pi.values)],
            [_render_values_line("pi", doc, f"{name}_pi", pi.frame, pi.values)])


@main.command()
@click.argument("name")
@click.pass_obj
def approx(doc: Document, name: str) -> Rendered:
    """Consonant approximation of a mass via its contour, with a consistency report."""
    pi, report = consonant_approximate(_get(name, ("mass", doc.masses)))
    flag = "true" if report.consistent else "false"
    rows = ["atom,pi,consistent,subnormalization"]
    rows += [
        f"{a},{cnum(v)},{flag},{cnum(report.subnormalization)}"
        for a, v in zip(pi.frame.atoms, pi.values)
    ]
    lines = [_render_values_line("pi", doc, f"{name}_approx", pi.frame, pi.values)]
    if report.consistent:
        lines.append("# consistent: true")
    else:
        lines.append(
            f"# consistent: false (subnormalization {hnum(report.subnormalization)})"
        )
    return rows, lines


@main.command()
@click.argument("name")
@click.option("--prior", "prior_name", default=None,
              help="Condition a prior on the fuzzy event instead of assuming ignorance.")
@click.pass_obj
def condition(doc: Document, name: str, prior_name: str | None) -> Rendered:
    """Condition on a fuzzy event: possibilistic without a prior, Bayesian with one."""
    f: FuzzySet = _get(name, ("fuzzy set", doc.fuzzies))
    atoms = f.scale.frame.atoms
    if prior_name is not None:
        posterior = bayes_fuzzy_condition(_get(prior_name, ("prob", doc.probs)), f)
        return (["point,p"] + [f"{a},{cnum(v)}" for a, v in zip(atoms, posterior.values)],
                [_render_values_line(
                    "prob", doc, f"{name}_posterior", posterior.frame, posterior.values)])
    result = possibilistic_condition(f)
    rows = ["point,pi,certainty"]
    rows += [
        f"{a},{cnum(v)},{cnum(c)}"
        for a, v, c in zip(atoms, result.pi.values, result.certainty)
    ]
    return rows, [
        _render_values_line("pi", doc, f"{name}_pi", result.pi.frame, result.pi.values),
        "# certainty: " + " ".join(hnum(c) for c in result.certainty),
    ]


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
        lines.append(_render_values_line("prob", doc, f"{name}_maxent", p.frame, p.values))
    if method in ("minspec", "both"):
        mass, pi = minspec_mass(statement)
        rows += [f"focal,{s},{cnum(w)}" for s, w in mass.focal_elements()]
        rows += [f"pi,{a},{cnum(v)}" for a, v in zip(pi.frame.atoms, pi.values)]
        lines += _render_mass_block(doc, f"{name}_minspec", mass)
        lines.append(_render_values_line("pi", doc, f"{name}_minspec_pi", pi.frame, pi.values))
    return rows, lines


@main.command()
@click.option("--statement", "statement_name", default=None,
              help="Use a statement declared in the document.")
@click.option("--frame", "frame_name", default=None, help="Frame for an inline statement.")
@click.option("--core", "core_text", default=None, help="Core subset literal, e.g. '{a b c}'.")
@click.option("--alpha", type=_Number(), default=None, help="Confidence bound in [0, 1].")
@click.option("--method", type=click.Choice(["maxent", "minspec", "both", "check"]),
              default="both", show_default=True)
@click.pass_obj
def elicit(doc: Document, statement_name: str | None, frame_name: str | None,
           core_text: str | None, alpha: float | None, method: str) -> Rendered:
    """Represent a vague 'probably in CORE' statement as committed models."""
    inline = [frame_name, core_text, alpha]
    if statement_name is not None:
        if any(v is not None for v in inline):
            raise click.UsageError("--statement excludes --frame/--core/--alpha")
        name, statement = statement_name, _get(statement_name, ("statement", doc.statements))
    else:
        if any(v is None for v in inline):
            raise click.UsageError(
                "give either --statement or all of --frame, --core, --alpha")
        statement = VagueStatement(parse_subset(doc.frame_named(frame_name), core_text), alpha)
        name = "elicited"
    if method == "check":
        return _bracket_lines(bracket_check(statement))
    return _statement_outputs(doc, name, statement, method)


@main.command()
@click.argument("name")
@click.argument("subset_text", metavar="SUBSET")
@click.pass_obj
def triangle(doc: Document, name: str, subset_text: str) -> Rendered:
    """Locate a proposition in the uncertainty triangle; always emits one CSV row."""
    mass = _mass_like(doc, name)
    subset = parse_subset(mass.frame, subset_text)
    point = mass.triangle_point(subset)
    ignorance = "" if point.ignorance is None else cnum(point.ignorance)
    row = [f"{name},{cnum(point.x)},{cnum(point.y)},{point.region.code},{ignorance}"]
    return row, row


@main.command()
@click.argument("name")
@click.pass_obj
def cardinality(doc: Document, name: str) -> Rendered:
    """Expected focal cardinality of a mass (its imprecision)."""
    value = _get(name, ("mass", doc.masses)).expected_cardinality()
    return (["mass,expected_cardinality", f"{name},{cnum(value)}"],
            [f"expected cardinality = {hnum(value)}"])


@main.command()
@click.argument("name")
@click.pass_obj
def classify(doc: Document, name: str) -> Rendered:
    """Structural classification of a mass function."""
    result = _get(name, ("mass", doc.masses)).classify()
    labels = sorted(result.labels)
    return (["mass,tag,labels", f"{name},{result.tag},{' '.join(labels)}"],
            [f"classification = {result.tag} (labels: {', '.join(labels)})"])


@main.command()
@click.argument("name")
@click.pass_obj
def check(doc: Document, name: str) -> Rendered:
    """Verify the belief/plausibility bracket of a statement on every subset."""
    return _bracket_lines(bracket_check(_get(name, ("statement", doc.statements))))


if __name__ == "__main__":
    main()
