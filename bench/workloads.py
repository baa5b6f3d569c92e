"""The three benchmark workloads: how each sets up, runs one operation and checks it.

Every workload is closed-loop with one operation in flight. `run` is the
operation as a user meets it (a fresh `python -m credal.cli` process, or a
library call); `replay` is the same operation in this process, which the
traced run uses to time calls into each module.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from math import fsum
from pathlib import Path
from time import perf_counter, process_time

from reference import BigDocument, doc_shape, matches, parse_session

OP_TIMEOUT_S = 120


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float  # CPU time of the process that did the work
    out: object  # stdout bytes, or the library results
    exit_ok: bool


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # users run with cached bytecode; a recompile on every process is not their cost
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], root: Path, env: dict[str, str]) -> tuple[float, float, bytes, bytes, bool]:
    """Run one child process; return its wall and CPU seconds, stdout, stderr and success."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    try:
        proc = subprocess.run(args, cwd=root, env=env, capture_output=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        wall = perf_counter() - t0
        return wall, 0.0, exc.stdout or b"", exc.stderr or b"", False
    wall = perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return wall, cpu, proc.stdout, proc.stderr, proc.returncode == 0


class CliWorkload:
    """Each operation is one `credal` command in a fresh interpreter."""

    rss_who = resource.RUSAGE_CHILDREN
    block = 1

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.root, self.seed, self.tmp = root, seed, tmp
        self.env = child_env(root)
        self._runner = None

    def setup(self) -> None:
        """Make the inputs, import credal.cli in a fresh interpreter, run one untimed op."""
        self.generate()
        run_child([sys.executable, "-c", "import credal.cli"], self.root, self.env)
        self.run(self.warmup)

    def run(self, argv: list[str]) -> Outcome:
        wall, cpu, out, _, ok = run_child([sys.executable, "-m", "credal.cli", *argv], self.root, self.env)
        return Outcome(wall, cpu, out, ok)

    def replay(self, argv: list[str]) -> Outcome:
        if self._runner is None:
            from click.testing import CliRunner

            from credal.cli import main

            self._runner, self._main = CliRunner(), main
        c0, t0 = process_time(), perf_counter()
        result = self._runner.invoke(self._main, argv)
        wall, cpu = perf_counter() - t0, process_time() - c0
        return Outcome(wall, cpu, result.stdout_bytes, result.exit_code == 0)


class CliSamples(CliWorkload):
    """The 28 recorded commands of samples/*.session, in a seeded order, cycled.

    A timed run ends on a whole cycle, so every run has the same command mix.
    """

    def generate(self) -> None:
        self.sessions = sorted((self.root / "samples").glob("*.session"))
        self.commands = [block for path in self.sessions for block in parse_session(path)]
        self.expected = {tuple(argv): out for argv, out in self.commands}
        self.block = len(self.commands)
        self.warmup = self.commands[0][0]
        order = list(range(len(self.commands)))
        random.Random(self.seed).shuffle(order)
        self._order, self._next = order, 0

    def next_op(self) -> list[str]:
        argv, _ = self.commands[self._order[self._next % len(self._order)]]
        self._next += 1
        return argv

    def check(self, argv: list[str], out: bytes) -> bool:
        return out == self.expected[tuple(argv)]

    def shape(self) -> dict:
        docs = sorted({self.root / argv[argv.index("--doc") + 1] for argv, _ in self.commands})
        return {
            "commands": len(self.commands),
            "documents": {p.name: doc_shape(p.read_text()) for p in docs},
        }


class BigDocumentWorkload(CliWorkload):
    """A seeded 64-atom document with 10^3- and 10^4-line masses, queried per process.

    Commands come in seeded blocks holding each kind once, and a timed run
    ends on a block boundary so every run has the same command mix.
    """

    block = len(BigDocument.BLOCK)

    def generate(self) -> None:
        self.doc = BigDocument(self.seed)
        self.path = self.tmp / "big.txt"
        self.path.write_text(self.doc.text)
        self._commands = self.doc.commands()
        self.warmup = self._argv(["classify", "m1k"])

    def _argv(self, command: list[str]) -> list[str]:
        return ["--doc", str(self.path), *command]

    def next_op(self) -> list[str]:
        return self._argv(next(self._commands))

    def check(self, argv: list[str], out: bytes) -> bool:
        return matches(out, self.doc.expected(argv[2:]))

    def shape(self) -> dict:
        return {"document": doc_shape(self.doc.text), "block": list(BigDocument.BLOCK)}


class PowersetScan:
    """In-process belief_table, plausibility_table and bracket_check at 2^12..2^18 cells.

    Operations come in blocks holding each n once, in seeded order, and a
    timed run ends on a block boundary so every run has the same size mix.
    """

    rss_who = resource.RUSAGE_SELF
    FOCAL = 256
    SAMPLED_MASKS = 16
    n_values = tuple(range(12, 19))
    block = len(n_values)

    def __init__(self, root: Path, seed: int, tmp: Path):
        self.root, self.seed = root, seed
        self.env = child_env(root)
        import credal

        self.credal = credal

    def setup(self) -> None:
        """Import credal in a fresh interpreter, make the first inputs, run one untimed op."""
        run_child([sys.executable, "-c", "import credal"], self.root, self.env)
        self._rng = random.Random(f"powerset-{self.seed}")
        self._queue: list[tuple] = []
        self._cards: list[int] = []
        warm = self._make(self.n_values[0])
        self.run(warm)

    def _make(self, n: int) -> tuple:
        rng, c = self._rng, self.credal
        frame = c.Frame([f"a{i}" for i in range(n)])
        focals = []
        for _ in range(self.FOCAL):
            k = rng.choice((1, 2, 3, n // 2, n - 1, n))
            focals.append((sum(1 << b for b in rng.sample(range(n), k)), rng.uniform(0.1, 1.0)))
        total = fsum(w for _, w in focals)
        mass = c.MassFunction(frame, [(frame.from_mask(m), w / total) for m, w in focals])
        core = sum(1 << b for b in rng.sample(range(n), rng.randint(1, n - 1)))
        statement = c.VagueStatement(frame.from_mask(core), round(rng.uniform(0.5, 0.95), 2))
        samples = [rng.getrandbits(n) for _ in range(self.SAMPLED_MASKS)]
        self._cards += [m.bit_count() for m, _ in focals]
        return n, mass, statement, samples

    def next_op(self) -> tuple:
        if not self._queue:
            order = list(self.n_values)
            self._rng.shuffle(order)
            self._queue = [self._make(n) for n in order]
        return self._queue.pop(0)

    def run(self, op: tuple) -> Outcome:
        _, mass, statement, _ = op
        c0, t0 = process_time(), perf_counter()
        bel = mass.belief_table()
        pl = mass.plausibility_table()
        report = self.credal.bracket_check(statement)
        wall, cpu = perf_counter() - t0, process_time() - c0
        return Outcome(wall, cpu, (bel, pl, report), True)

    replay = run

    def check(self, op: tuple, out: tuple) -> bool:
        n, mass, _, samples = op
        bel, pl, report = out
        full = (1 << n) - 1
        if len(bel) != full + 1 or len(pl) != full + 1:
            return False
        # the complement of mask m is full - m, so Bel(not A) runs over bel reversed
        if any(abs(p - (1.0 - b)) > 1e-12 for p, b in zip(pl, reversed(bel))):
            return False
        frame = mass.frame
        for m in samples:
            a = frame.from_mask(m)
            if abs(bel[m] - mass.belief(a)) > 1e-12 or abs(pl[m] - mass.plausibility(a)) > 1e-12:
                return False
        return report.subsets_checked == 1 << n and report.holds

    def shape(self) -> dict:
        cards = self._cards
        return {"n_values": list(self.n_values), "cells": [1 << n for n in self.n_values],
                "focal_lines_per_mass": self.FOCAL, "masses": len(cards) // self.FOCAL,
                "focal_card_mean": round(sum(cards) / len(cards), 3), "focal_card_max": max(cards)}


def make(name: str, root: Path, seed: int, tmp: Path):
    if name == "cli_samples":
        return CliSamples(root, seed, tmp)
    if name == "big_document":
        return BigDocumentWorkload(root, seed, tmp)
    return PowersetScan(root, seed, tmp)


WORKLOADS = ("cli_samples", "big_document", "powerset_scan")
