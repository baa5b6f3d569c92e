"""Seeded benchmark inputs and plain-Python reference answers.

Nothing here imports credal: the big document's expected outputs are
computed with math.fsum from the generator's own focal lists, and the
session transcripts are read as recorded.
"""

from __future__ import annotations

import random
import re
import shlex
from math import floor, fsum, log10
from pathlib import Path

FRAME = "w64"
ATOMS = tuple(f"x{i:02d}" for i in range(64))
FULL = (1 << 64) - 1
EQ_TOLERANCE = 1e-12  # the library's tolerance for region and normalization tests


def parse_session(path: Path) -> list[tuple[list[str], bytes]]:
    """Split a recorded session into (argv after `credal`, expected stdout) pairs."""
    blocks: list[tuple[list[str], bytes]] = []
    command: str | None = None
    expected: list[str] = []

    def flush() -> None:
        if command is not None:
            while expected and not expected[-1].strip():
                expected.pop()  # blank lines separate commands; they are not output
            blocks.append((shlex.split(command)[1:], ("\n".join(expected) + "\n").encode()))

    for raw in path.read_text().splitlines():
        if raw.startswith("$ "):
            flush()
            command, expected = raw[2:], []
        elif raw.strip() or expected:
            expected.append(raw)
    flush()
    return blocks


def doc_shape(text: str) -> dict:
    """Input properties of a document: size, frame width and focal-line statistics."""
    atoms, cards = 0, []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("frame "):
            atoms = max(atoms, len(line.split(":", 1)[1].split()))
        elif line.startswith("scale "):
            lo, hi = line.split(":", 1)[1].strip().split("..")
            atoms = max(atoms, int(hi) - int(lo) + 1)
        elif line.startswith("{"):
            cards.append(len(line[1:line.index("}")].split()))
    return {
        "atoms": atoms,
        "lines": text.count("\n"),
        "bytes": len(text.encode()),
        "focal": len(cards),
        "focal_card_mean": round(fsum(cards) / len(cards), 3) if cards else 0,
        "focal_card_max": max(cards, default=0),
    }


def literal(mask: int) -> str:
    return "{" + " ".join(a for i, a in enumerate(ATOMS) if mask >> i & 1) + "}"


def _random_mask(rng: random.Random, k: int) -> int:
    return sum(1 << b for b in rng.sample(range(64), k))


def _mixed_focals(rng: random.Random, count: int) -> list[tuple[int, float]]:
    """Focal sets of 1-4 atoms, about half the frame, or almost all of it."""
    focals = []
    for _ in range(count):
        r = rng.random()
        k = rng.randint(1, 4) if r < 0.6 else rng.randint(28, 36) if r < 0.85 else rng.randint(60, 63)
        focals.append((_random_mask(rng, k), rng.uniform(0.1, 1.0)))
    total = fsum(w for _, w in focals)
    return [(m, w / total) for m, w in focals]


def _consonant(rng: random.Random) -> list[tuple[int, float]]:
    order = rng.sample(range(64), 64)
    weights = [rng.uniform(0.1, 1.0) for _ in order]
    total = fsum(weights)
    mask, focals = 0, []
    for atom, w in zip(order, weights):
        mask |= 1 << atom
        focals.append((mask, w / total))
    return focals


def G(v: float) -> tuple[str, float]:
    """A number the CLI prints with 6 significant digits."""
    return ("g", v)


def F(v: float) -> tuple[str, float]:
    """A number the CLI prints with 6 fixed decimals (CSV cells)."""
    return ("f", v)


_SPLIT = re.compile(r"[\s,()]+")


def _tokens(items) -> list:
    out: list = []
    for item in items:
        out += [t for t in _SPLIT.split(item) if t] if isinstance(item, str) else [item]
    return out


def _close(token: str, expected: tuple[str, float]) -> bool:
    """Equal within the precision the CLI prints."""
    fmt, v = expected
    try:
        got = float(token)
    except ValueError:
        return False
    if fmt == "f":
        unit = 1e-6
    else:
        unit = 10.0 ** (floor(log10(abs(v))) - 5) if v else 0.0
    return abs(got - v) <= 0.5001 * unit + 1e-12


def matches(stdout: bytes, expected_lines: list[list]) -> bool:
    """Compare CLI stdout with reference lines token by token."""
    got_lines = stdout.decode().splitlines()
    if len(got_lines) != len(expected_lines):
        return False
    for got_line, items in zip(got_lines, expected_lines):
        got, want = _tokens([got_line]), _tokens(items)
        if len(got) != len(want):
            return False
        for g, w in zip(got, want):
            if not (g == w if isinstance(w, str) else _close(g, w)):
                return False
    return True


class BigDocument:
    """A seeded 64-atom document and the reference answer to each generated command."""

    # one block of commands, each on a fixed mass, so every block costs the
    # same whatever the seed; the seed sets their order and their targets
    BLOCK = ("query Bel m10k", "query Bel m1k", "query Pl m10k", "query Pl cons",
             "approx m10k", "approx m1k", "convert cons", "convert p64",
             "classify m10k", "cardinality cons", "triangle m10k",
             "elicit --statement s64 --method both")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.masses = {
            "m1k": _mixed_focals(rng, 1000),
            "m10k": _mixed_focals(rng, 10000),
            "cons": _consonant(rng),
        }
        grades = [round(rng.random(), 3) for _ in ATOMS]
        grades[rng.randrange(64)] = 1.0
        self.pi = grades
        self.core = _random_mask(rng, rng.randint(4, 24))
        self.alpha = round(rng.uniform(0.55, 0.95), 2)
        lines = [f"# seeded benchmark document (seed {seed})", f"frame {FRAME}: {' '.join(ATOMS)}"]
        for name, focals in self.masses.items():
            lines.append(f"mass {name} over {FRAME}:")
            lines += [f"  {literal(m)} {w!r}" for m, w in focals]
        lines.append(f"pi p64 over {FRAME}: " + " ".join(repr(v) for v in self.pi))
        lines.append(f"statement s64 over {FRAME}: core {literal(self.core)} alpha {self.alpha!r}")
        self.text = "\n".join(lines) + "\n"
        self._expected: dict[tuple[str, ...], list[list]] = {}

    def commands(self):
        """Endless seeded command stream (argv after --doc FILE), one block at a time."""
        rng = random.Random(f"commands-{self.seed}")
        while True:
            block = list(self.BLOCK)
            rng.shuffle(block)
            for kind in block:
                yield self._command(rng, kind)

    def _command(self, rng: random.Random, kind: str) -> list[str]:
        argv = kind.split()
        if argv[0] == "query":
            return [*argv, literal(rng.getrandbits(64))]
        if argv[0] == "triangle":
            mask = 0
            while mask in (0, FULL):
                mask = rng.getrandbits(64)
            return [*argv, literal(mask)]
        return argv

    # -- reference answers -------------------------------------------------

    def _weights(self, name: str) -> list[tuple[int, float]]:
        focals = self.masses[name]
        total = fsum(w for _, w in focals)
        return [(m, w / total) for m, w in focals]

    def _bel(self, name: str, a: int) -> float:
        return fsum(w for m, w in self._weights(name) if m & ~a & FULL == 0)

    def _contour(self, name: str) -> list[float]:
        focals = self._weights(name)
        return [min(fsum(w for m, w in focals if m >> i & 1), 1.0) for i in range(64)]

    def _mass_block(self, title: str, focals: list[tuple[int, float]]) -> list[list]:
        total = fsum(w for _, w in focals)
        ordered = sorted(focals, key=lambda f: (f[0].bit_count(), f[0]))
        return [[f"mass {title} over {FRAME}:"]] + [[literal(m), G(w / total)] for m, w in ordered]

    def _values_line(self, kind: str, title: str, values) -> list:
        return [f"{kind} {title} over {FRAME}:", *(G(v) for v in values)]

    def expected(self, argv: list[str]) -> list[list]:
        """Reference stdout lines for one command (argv after --doc FILE)."""
        key = tuple(argv)
        if key not in self._expected:
            self._expected[key] = self._reference(argv)
        return self._expected[key]

    def _reference(self, argv: list[str]) -> list[list]:
        cmd, args = argv[0], argv[1:]
        if cmd == "query":
            measure, name, text = args
            a = self._mask(text)
            if measure == "Bel":
                value = self._bel(name, a)
            else:
                value = fsum(w for m, w in self._weights(name) if m & a)
            return [[f"{measure} =", G(value)]]
        if cmd == "approx":
            (name,) = args
            pi = self._contour(name)
            top = max(pi)
            if 1.0 - top <= EQ_TOLERANCE:
                return [self._values_line("pi", f"{name}_approx", pi), ["# consistent: true"]]
            return [self._values_line("pi", f"{name}_approx", [v / top for v in pi]),
                    ["# consistent: false (subnormalization", G(top), ")"]]
        if cmd == "convert":
            (name,) = args
            if name == "p64":
                levels = sorted({v for v in self.pi if v > 0.0}, reverse=True)
                cuts = []
                for i, level in enumerate(levels):
                    below = levels[i + 1] if i + 1 < len(levels) else 0.0
                    cut = sum(1 << j for j, v in enumerate(self.pi) if v >= level)
                    cuts.append((cut, level - below))
                return self._mass_block("p64_mass", cuts)
            return [self._values_line("pi", f"{name}_pi", self._contour(name))]
        if cmd == "classify":
            (name,) = args
            tag, labels = self._classify(name)
            return [[f"classification = {tag} (labels:", *labels, ")"]]
        if cmd == "cardinality":
            (name,) = args
            return [["expected cardinality =", G(fsum(w * m.bit_count() for m, w in self._weights(name)))]]
        if cmd == "triangle":
            name, text = args
            a = self._mask(text)
            x, y = self._bel(name, a), self._bel(name, FULL ^ a)
            region, ignorance = _triangle(x, y)
            return [[name, F(x), F(y), region] + ([] if ignorance is None else [F(ignorance)])]
        if cmd == "elicit":
            method = args[-1]
            lines: list[list] = []
            if method in ("maxent", "both"):
                lines.append(self._values_line("prob", "s64_maxent", self._maxent()))
            if method in ("minspec", "both"):
                rest = 1.0 - self.alpha
                lines += self._mass_block("s64_minspec", [(self.core, 1.0 - rest), (FULL, rest)])
                pi = [1.0 if self.core >> i & 1 else rest for i in range(64)]
                lines.append(self._values_line("pi", "s64_minspec_pi", pi))
            return lines
        raise ValueError(f"no reference for {argv!r}")

    def _mask(self, text: str) -> int:
        return sum(1 << ATOMS.index(label) for label in text.strip("{}").split())

    def _classify(self, name: str) -> tuple[str, list[str]]:
        masks = sorted({m for m, _ in self.masses[name]}, key=lambda m: (m.bit_count(), m))
        labels = set()
        if masks == [FULL]:
            labels.add("vacuous")
        if all(m.bit_count() == 1 for m in masks):
            labels.add("bayesian")
        if all(a & ~b == 0 for a, b in zip(masks, masks[1:])):
            labels.add("consonant")
        for tag in ("vacuous", "bayesian", "consonant"):
            if tag in labels:
                return tag, sorted(labels)
        return "general", ["general"]

    def _maxent(self) -> list[float]:
        k = self.core.bit_count()
        if self.alpha * 64 <= k:
            values = [1.0 / 64] * 64
        else:
            inside, outside = self.alpha / k, (1.0 - self.alpha) / (64 - k)
            values = [inside if self.core >> i & 1 else outside for i in range(64)]
        total = fsum(values)
        return [v / total for v in values]


def _triangle(x: float, y: float) -> tuple[str, float | None]:
    def near(u: float, v: float) -> bool:
        return abs(u - v) <= EQ_TOLERANCE

    if near(x, 1.0) and near(y, 0.0):
        region = "A"
    elif near(x, 0.0) and near(y, 1.0):
        region = "B"
    elif near(x, 0.0) and near(y, 0.0):
        region = "O"
    elif near(x + y, 1.0):
        region = "probabilistic-edge"
    elif near(min(x, y), 0.0):
        region = "possibilistic-axes"
    else:
        region = "interior"
    return region, (1.0 - 2.0 * x if near(x, y) else None)
