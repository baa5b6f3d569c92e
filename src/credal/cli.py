"""Command-line front end over the document format.

All commands read the objects named on the command line from the document
given with --doc, run one operation, and print a deterministic result:
human-readable lines by default, CSV with --csv, to stdout or to --out.
Numeric text output uses 6 significant digits; CSV cells use 6 fixed
decimals for golden-file stability. Errors are one-line diagnostics with a
nonzero exit status, never stack traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import click

from .document import Document, parse_document
from .elicit import BracketReport, VagueStatement, bracket_check, maxent_distribution, minspec_mass
from .errors import CredalError
from .evidence import MassFunction
from .frames import Frame, parse_subset
from .fuzzy import FuzzySet, bayes_fuzzy_condition, possibilistic_condition
from .possibility import consonant_approximate, contour


def hnum(v: float) -> str:
    """Human-readable number: 6 significant digits, no trailing zeros."""
    return format(v, ".6g")


def cnum(v: float) -> str:
    """CSV cell number: fixed 6 decimals."""
    return format(v, ".6f")


@dataclass
class App:
    doc: Document
    csv: bool
    out: TextIO | None


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
def main(ctx: click.Context, doc_file: TextIO, as_csv: bool, out_file: TextIO | None) -> None:
    """Query and transform bodies of evidence, possibility distributions, and vague statements."""
    try:
        text = doc_file.read()
    except UnicodeDecodeError as exc:
        raise click.ClickException(f"cannot read {doc_file.name}: {exc}") from exc
    ctx.obj = App(doc=parse_document(text), csv=as_csv, out=out_file)


def _emit(app: App, lines: list[str]) -> None:
    click.echo("\n".join(lines), file=app.out)


def _get(table: dict, kind: str, name: str):
    if name not in table:
        raise click.ClickException(f"unknown {kind} {name!r}")
    return table[name]


def _mass_like(doc: Document, name: str) -> MassFunction:
    """Resolve a name against masses, then probability distributions."""
    if name in doc.masses and name in doc.probs:
        raise click.ClickException(
            f"{name!r} names both a mass and a prob; rename one of them"
        )
    if name in doc.masses:
        return doc.masses[name]
    if name in doc.probs:
        return doc.probs[name].as_mass()
    raise click.ClickException(f"unknown mass or prob {name!r}")


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
def query(app: App, measure: str, name: str, subset_text: str) -> None:
    """Evaluate one measure of one object on a subset literal like '{w1 w2}'."""
    doc = app.doc
    if measure in ("Bel", "Pl"):
        mass = _mass_like(doc, name)
        subset = parse_subset(mass.frame, subset_text)
        value = mass.belief(subset) if measure == "Bel" else mass.plausibility(subset)
    else:
        pi = _get(doc.pis, "pi", name)
        subset = parse_subset(pi.frame, subset_text)
        value = pi.possibility_of(subset) if measure == "Pi" else pi.necessity_of(subset)
    if app.csv:
        _emit(app, ["measure,object,subset,value",
                    f"{measure},{name},{subset},{cnum(value)}"])
    else:
        _emit(app, [f"{measure} = {hnum(value)}"])


@main.command()
@click.argument("name")
@click.pass_obj
def convert(app: App, name: str) -> None:
    """Convert between a possibility distribution and its consonant mass."""
    doc = app.doc
    if name in doc.pis and name in doc.masses:
        raise click.ClickException(
            f"{name!r} names both a pi and a mass; rename one of them"
        )
    if name in doc.pis:
        mass = doc.pis[name].as_mass()
        if app.csv:
            rows = ["subset,weight"]
            rows += [f"{s},{cnum(w)}" for s, w in mass.focal_elements()]
            _emit(app, rows)
        else:
            _emit(app, _render_mass_block(doc, f"{name}_mass", mass))
        return
    if name in doc.masses:
        mass = doc.masses[name]
        if "consonant" not in mass.classify().labels:
            raise click.ClickException(
                f"mass {name!r} is not consonant; use approx for dissonant evidence"
            )
        pi = contour(mass)
        if app.csv:
            rows = ["atom,value"]
            rows += [f"{a},{cnum(v)}" for a, v in zip(pi.frame.atoms, pi.values)]
            _emit(app, rows)
        else:
            _emit(app, [_render_values_line("pi", doc, f"{name}_pi", pi.frame, pi.values)])
        return
    raise click.ClickException(f"unknown pi or mass {name!r}")


@main.command()
@click.argument("name")
@click.pass_obj
def approx(app: App, name: str) -> None:
    """Consonant approximation of a mass via its contour, with a consistency report."""
    doc = app.doc
    mass = _get(doc.masses, "mass", name)
    pi, report = consonant_approximate(mass)
    if app.csv:
        flag = "true" if report.consistent else "false"
        rows = ["atom,pi,consistent,subnormalization"]
        rows += [
            f"{a},{cnum(v)},{flag},{cnum(report.subnormalization)}"
            for a, v in zip(pi.frame.atoms, pi.values)
        ]
        _emit(app, rows)
        return
    lines = [_render_values_line("pi", doc, f"{name}_approx", pi.frame, pi.values)]
    if report.consistent:
        lines.append("# consistent: true")
    else:
        lines.append(
            f"# consistent: false (subnormalization {hnum(report.subnormalization)})"
        )
    _emit(app, lines)


@main.command()
@click.argument("name")
@click.option("--prior", "prior_name", default=None,
              help="Condition a prior on the fuzzy event instead of assuming ignorance.")
@click.pass_obj
def condition(app: App, name: str, prior_name: str | None) -> None:
    """Condition on a fuzzy event: possibilistic without a prior, Bayesian with one."""
    doc = app.doc
    f: FuzzySet = _get(doc.fuzzies, "fuzzy set", name)
    atoms = f.scale.frame.atoms
    if prior_name is not None:
        posterior = bayes_fuzzy_condition(_get(doc.probs, "prob", prior_name), f)
        if app.csv:
            rows = ["point,p"]
            rows += [f"{a},{cnum(v)}" for a, v in zip(atoms, posterior.values)]
            _emit(app, rows)
        else:
            _emit(app, [_render_values_line(
                "prob", doc, f"{name}_posterior", posterior.frame, posterior.values)])
        return
    result = possibilistic_condition(f)
    if app.csv:
        rows = ["point,pi,certainty"]
        rows += [
            f"{a},{cnum(v)},{cnum(c)}"
            for a, v, c in zip(atoms, result.pi.values, result.certainty)
        ]
        _emit(app, rows)
    else:
        _emit(app, [
            _render_values_line("pi", doc, f"{name}_pi", result.pi.frame, result.pi.values),
            "# certainty: " + " ".join(hnum(c) for c in result.certainty),
        ])


def _bracket_lines(app: App, report: BracketReport) -> list[str]:
    if app.csv:
        return [
            "subsets_checked,max_violation,tightest_width,tightest_subset,holds",
            f"{report.subsets_checked},{cnum(report.max_violation)},"
            f"{cnum(report.tightest_width)},{report.tightest_subset},"
            f"{'true' if report.holds else 'false'}",
        ]
    return [
        f"subsets checked: {report.subsets_checked}",
        f"max violation: {hnum(report.max_violation)}",
        f"tightest width: {hnum(report.tightest_width)} at {report.tightest_subset}",
        f"bracket holds: {'yes' if report.holds else 'no'}",
    ]


def _statement_outputs(app: App, name: str, statement: VagueStatement,
                       method: str) -> list[str]:
    doc = app.doc
    lines: list[str] = []
    csv_rows: list[str] = []
    if method in ("maxent", "both"):
        p = maxent_distribution(statement)
        if app.csv:
            csv_rows += [f"p,{a},{cnum(v)}" for a, v in zip(p.frame.atoms, p.values)]
        else:
            lines.append(_render_values_line(
                "prob", doc, f"{name}_maxent", p.frame, p.values))
    if method in ("minspec", "both"):
        mass, pi = minspec_mass(statement)
        if app.csv:
            csv_rows += [f"focal,{s},{cnum(w)}" for s, w in mass.focal_elements()]
            csv_rows += [f"pi,{a},{cnum(v)}" for a, v in zip(pi.frame.atoms, pi.values)]
        else:
            lines += _render_mass_block(doc, f"{name}_minspec", mass)
            lines.append(_render_values_line(
                "pi", doc, f"{name}_minspec_pi", pi.frame, pi.values))
    if app.csv:
        return ["part,key,value"] + csv_rows
    return lines


@main.command()
@click.option("--statement", "statement_name", default=None,
              help="Use a statement declared in the document.")
@click.option("--frame", "frame_name", default=None, help="Frame for an inline statement.")
@click.option("--core", "core_text", default=None, help="Core subset literal, e.g. '{a b c}'.")
@click.option("--alpha", type=float, default=None, help="Confidence bound in [0, 1].")
@click.option("--method", type=click.Choice(["maxent", "minspec", "both", "check"]),
              default="both", show_default=True)
@click.pass_obj
def elicit(app: App, statement_name: str | None, frame_name: str | None,
           core_text: str | None, alpha: float | None, method: str) -> None:
    """Represent a vague 'probably in CORE' statement as committed models."""
    doc = app.doc
    inline = [frame_name, core_text, alpha]
    if statement_name is not None:
        if any(v is not None for v in inline):
            raise click.UsageError("--statement excludes --frame/--core/--alpha")
        name, statement = statement_name, _get(doc.statements, "statement", statement_name)
    else:
        if any(v is None for v in inline):
            raise click.UsageError(
                "give either --statement or all of --frame, --core, --alpha")
        statement = VagueStatement(parse_subset(doc.frame_named(frame_name), core_text), alpha)
        name = "elicited"
    if method == "check":
        _emit(app, _bracket_lines(app, bracket_check(statement)))
    else:
        _emit(app, _statement_outputs(app, name, statement, method))


@main.command()
@click.argument("name")
@click.argument("subset_text", metavar="SUBSET")
@click.pass_obj
def triangle(app: App, name: str, subset_text: str) -> None:
    """Locate a proposition in the uncertainty triangle; always emits one CSV row."""
    mass = _mass_like(app.doc, name)
    subset = parse_subset(mass.frame, subset_text)
    point = mass.triangle_point(subset)
    ignorance = "" if point.ignorance is None else cnum(point.ignorance)
    _emit(app, [f"{name},{cnum(point.x)},{cnum(point.y)},{point.region.code},{ignorance}"])


@main.command()
@click.argument("name")
@click.pass_obj
def cardinality(app: App, name: str) -> None:
    """Expected focal cardinality of a mass (its imprecision)."""
    mass = _get(app.doc.masses, "mass", name)
    value = mass.expected_cardinality()
    if app.csv:
        _emit(app, ["mass,expected_cardinality", f"{name},{cnum(value)}"])
    else:
        _emit(app, [f"expected cardinality = {hnum(value)}"])


@main.command()
@click.argument("name")
@click.pass_obj
def classify(app: App, name: str) -> None:
    """Structural classification of a mass function."""
    mass = _get(app.doc.masses, "mass", name)
    result = mass.classify()
    labels = sorted(result.labels)
    if app.csv:
        _emit(app, ["mass,tag,labels", f"{name},{result.tag},{' '.join(labels)}"])
    else:
        _emit(app, [f"classification = {result.tag} (labels: {', '.join(labels)})"])


@main.command()
@click.argument("name")
@click.pass_obj
def check(app: App, name: str) -> None:
    """Exhaustively verify the belief/plausibility bracket of a statement."""
    _emit(app, _bracket_lines(app, bracket_check(_get(app.doc.statements, "statement", name))))


if __name__ == "__main__":
    main()
