"""Whole documents and command lines drawn from the grammar, valid and broken alike.

Every invocation runs through `cli_runner.credal`, which checks the outcome
contract: exit 0 with finite numbers on stdout, exit 1 with exactly one
`Error:` line on stderr, or exit 2 with the usage message, and never a
traceback. This module adds what the runner cannot see: the numbers in an
--out file, and how `elicit --alpha` reads a foreign number token.
Hypothesis draws the structure (which declarations, which commands and
options); a drawn `random.Random` fills in the per-atom values, which keeps
a 64-atom document cheap to generate.
"""

from math import ldexp

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cli_runner import credal, non_finite

NAMES = ["w", "v", "m", "p", "s", "y", "age"]
KINDS = ["mass", "pi", "prob", "fuzzy", "statement"]
COMMANDS = ["query", "convert", "approx", "condition", "elicit", "triangle", "cardinality", "classify", "check"]
# legal grades where rounding shows: zero, the least subnormal, one that vanishes next to 1, 1 ulp below 1
EDGE_GRADES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-17, 1 / 3, 0.5, 1 - 2**-53, 1.0]
# number tokens `float` reads but a document, and so `elicit --alpha`, refuses: digit separators, other scripts' digits
FOREIGN_NUMBERS = ["1_0", "0.2_5", "0.8_0", "\u0661", "\u0661.5", "\u0660.\u0668", "\uff10.5", "1e\u0661"]
# number tokens where parsing or arithmetic breaks: non-finite, overflowing, signed zero, not numbers, foreign
BAD_NUMBERS = ["nan", "inf", "-inf", "1e308", "1e400", "-1e-400", "-0.0", "-1", ".5", "0x1p-3", "abc"] + FOREIGN_NUMBERS
# integer tokens `int` reads but a document refuses: a digit separator, Arabic-Indic and fullwidth digits
FOREIGN_INTEGERS = ["1_0", "\u0661", "-\u0663", "\uff11\uff10"]
# integer tokens past 64 bits, past float range and past the interpreter's 4300-digit string cap
HUGE = ["9" * 19, "-" + "9" * 19, "9" * 309, "1" + "0" * 400, "-" + "9" * 400, "9" * 4301]
MALFORMED = ["nonsense here", "{a0} 0.5", "mass m over w: 1", "frame :", "frame w:", "frame w: a b a",
             "scale s: 1..", "scale s: 5..1", "pi p over w:", "statement s over w: core {} alpha 0.5",
             "fuzzy y over age: (1,1.0) junk", "fuzzy y over age:", "prob p over", "mass over w:", "}{", "{}"]
OUT = [None, None, None, None, "FILE", "/dev/full", "DIR", "DIR/missing/x"]


def grade(rng) -> str:
    return repr(rng.choice(EDGE_GRADES) if rng.random() < 0.5 else rng.random())


def number(rng) -> str:
    """Any number token: a legal grade, a float of any magnitude, or a broken one."""
    r = rng.random()
    if r < 0.4:
        return grade(rng)
    if r < 0.7:
        return repr(ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1080, 1024)))
    return rng.choice(BAD_NUMBERS)


def foreign(rng) -> str:
    return rng.choice(FOREIGN_NUMBERS)


def integer(rng) -> str:
    r = rng.random()
    if r < 0.05:
        return rng.choice(FOREIGN_INTEGERS)
    return str(rng.randint(-100, 100)) if r < 0.7 else rng.choice(HUGE)


def weights(rng, k: int, clean: bool) -> list[str]:
    """`k` positive weights, down to subnormal, renormalized to sum 1; or any number tokens."""
    if not clean:
        return [number(rng) for _ in range(k)]
    raw = [rng.choice([5e-324, 1e-300, 1e-17]) if rng.random() < 0.2 else rng.random() + 1e-9 for _ in range(k)]
    raw[0] += 1e-9
    total = sum(raw)
    return [repr(w / total) for w in raw]


def literal(rng, atoms: list[str], least: int = 0, proper: bool = False) -> str:
    """A subset literal with at least `least` atoms, and not all of them if `proper` (and there are two)."""
    proper = proper and len(atoms) > 1
    while True:
        chosen = [a for a in atoms if rng.random() < rng.random()]
        if len(chosen) >= least and not (proper and len(chosen) == len(atoms)):
            return "{" + " ".join(chosen) + "}"


@st.composite
def documents(draw):
    """A document, the names it declares of each kind, and its frames' atoms by name.

    Three in four documents are valid, with extreme but legal values; the
    rest take any number token, unknown names and malformed lines.
    """
    rng = draw(st.randoms(use_true_random=True))
    clean = draw(st.integers(0, 3)) > 0
    lines: list[str] = []
    frames: dict[str, list[str]] = {}
    declared: dict[str, list[str]] = {kind: [] for kind in KINDS}
    scale = None

    def fresh(taken) -> str:
        free = [name for name in NAMES if name not in taken] if clean else NAMES
        return draw(st.sampled_from(free))

    for prefix in "ab"[:draw(st.integers(1, 2))]:
        name = fresh(frames)
        atoms = [f"{prefix}{i}" for i in range(draw(st.integers(1, 64)))]
        lines.append(f"frame {name}: {' '.join(atoms)}")
        frames.setdefault(name, atoms)
    if draw(st.booleans()):
        scale = fresh(frames)
        # a valid scale's points are distinct floats, as a fuzzy set's breakpoints need
        lo = str(rng.choice([rng.randint(-100, 100), rng.randint(-2**53, 2**53 - 63)])) if clean else integer(rng)
        near = len(lo) < 4000 and (clean or draw(st.booleans()))
        hi = str(int(lo) + draw(st.integers(0, 63) if clean else st.integers(-1, 70))) if near else integer(rng)
        lines.append(f"scale {scale}: {lo}..{hi}")
        if near and 0 <= int(hi) - int(lo) < 64:
            frames[scale] = [str(x) for x in range(int(lo), int(hi) + 1)]
    # a valid document declares every kind, so that every command finds a name to work on
    kinds = draw(st.permutations(KINDS)) if clean else []
    for kind in kinds + draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3)):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "# a comment", "   # indented {a0} 0.5", "   "])))
        if not clean and draw(st.booleans()):
            lines.append(draw(st.one_of(st.sampled_from(MALFORMED),
                                        st.text(alphabet="{}():.,#-_ 0123456789abxyz\t", max_size=30))))
        if kind == "fuzzy" and clean and scale not in frames:
            continue
        ref = scale if kind == "fuzzy" and clean else draw(st.sampled_from(list(frames) + ["ghost"] * (not clean)))
        atoms = frames.get(ref, ["a0"])
        if kind == "statement" and clean and len(atoms) == 1:
            continue  # a valid core is neither empty nor the whole frame
        name = fresh(declared[kind])
        declared[kind].append(name)
        if kind == "mass":
            lines.append(f"mass {name} over {ref}:")
            focals = [literal(rng, atoms, least=int(clean)) for _ in range(draw(st.integers(1, 5)))]
            lines += [f"  {f} {w}" for f, w in zip(focals, weights(rng, len(focals), clean))]
        elif kind == "pi":
            values = [grade(rng) if clean else number(rng) for _ in range(len(atoms) + (not clean))]
            values[rng.randrange(len(atoms))] = "1.0"
            lines.append(f"pi {name} over {ref}: {' '.join(values)}")
        elif kind == "prob":
            lines.append(f"prob {name} over {ref}: {' '.join(weights(rng, len(atoms), clean))}")
        elif kind == "fuzzy":
            k = draw(st.integers(1, 5))
            xs = sorted(rng.sample(atoms, min(k, len(atoms))), key=int) if clean else [integer(rng) for _ in range(k)]
            lines.append(f"fuzzy {name} over {ref}: " + " ".join(f"({x},{grade(rng)})" for x in xs))
        else:
            core = literal(rng, atoms, least=int(clean), proper=clean)
            lines.append(f"statement {name} over {ref}: core {core} alpha {grade(rng) if clean else number(rng)}")
    return "\n".join(lines) + "\n", declared, frames


@st.composite
def invocations(draw, declared, frames):
    """argv after `--doc -`: the global options, then one command naming objects the document may declare."""
    rng = draw(st.randoms(use_true_random=True))

    def name(*kinds):
        return draw(st.sampled_from([n for kind in kinds for n in declared[kind]] * 4 + ["ghost"]))

    def subset():
        atoms = draw(st.sampled_from(list(frames.values()) or [["a0"]]))
        return draw(st.sampled_from([literal(rng, atoms)] * 6 + ["{}", "{zz}", "a0", "{a0"]))

    argv = ["--csv"] if draw(st.booleans()) else []
    out = draw(st.sampled_from(OUT))
    if out is not None:
        argv += ["--out", out]
    # elicit weighs double: its statement and inline forms are two ways in
    command = draw(st.sampled_from(COMMANDS * 4 + ["elicit"] * 4 + [None]))
    if command is None:
        return argv + draw(st.sampled_from([[], ["frobnicate"], ["query", "Bel"]]))
    argv.append(command)
    if command == "query":
        measure = draw(st.sampled_from(["Bel", "Pl", "Pi", "N", "P"]))
        argv += [measure, name("pi") if measure in ("Pi", "N") else name("mass", "prob"), subset()]
    elif command == "triangle":
        argv += [name("mass", "prob"), subset()]
    elif command == "condition":
        argv.append(name("fuzzy"))
        if draw(st.booleans()):
            argv += ["--prior", name("prob")]
    elif command == "elicit":
        # --core mostly takes a proper subset of the frame --frame names: only an otherwise valid
        # inline statement shows how --alpha is read
        frame = draw(st.sampled_from(list(frames) * 3 + ["ghost"]))
        core = literal(rng, frames.get(frame, ["a0"]), least=1, proper=True)
        inline = ["--frame", frame, "--core", draw(st.sampled_from([core] * 3 + [subset()])),
                  "--alpha", draw(st.sampled_from([grade, number, foreign]))(rng)]
        statement = ["--statement", name("statement")]
        argv += draw(st.sampled_from([statement] * 2 + [inline] * 3 + [inline[:2], statement + inline, []]))
        if draw(st.booleans()):
            argv += ["--method", draw(st.sampled_from(["maxent", "minspec", "both", "check", "bogus"]))]
    elif command == "check":
        argv.append(name("statement"))
    elif command == "convert":
        argv.append(name("pi", "mass"))
    else:
        argv.append(name("mass"))
    return argv


@st.composite
def cases(draw):
    doc, declared, frames = draw(documents())
    return doc, draw(st.lists(invocations(declared, frames), min_size=1, max_size=6))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(cases())
# a slower machine may take long over a few 64-atom documents; that is not a fault of the test
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_invocation_ends_in_numbers_one_error_line_or_usage(out_dir, case):
    doc, argvs = case
    target = out_dir / "out.txt"
    for argv in argvs:
        argv = [arg.replace("FILE", str(target)).replace("DIR", str(out_dir)) for arg in argv]
        target.unlink(missing_ok=True)
        result = credal(*argv, doc=doc)
        where = f"{argv} on\n{doc}\n-> {result.exit_code}: {result.stderr!r}"
        if "--alpha" in argv and argv[argv.index("--alpha") + 1] in FOREIGN_NUMBERS:
            # the parser refuses the value before the document is read
            assert result.exit_code == 2 and "Error: argument --alpha: not a number" in result.stderr, where
        if result.exit_code == 0 and str(target) in argv:
            assert non_finite(target.read_text()) == [], where
