"""Pieces shared by the workloads: the operation record, seeded randomness,
and loading the program from the checkout's own sources."""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Hashable

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("core", "models", "random_choice", "oracle", "identify", "cli")
# The seed of every warm-up.  No run uses it, so the warm-up never fills a
# program cache with a timed input, and since it is the same for every run,
# the warm-up's share of the set-up time does not vary with --seed.
WARM_SEED = "warm-up"


class MissingProgram(Exception):
    """The checkout holds no choicelattice sources to benchmark."""


def require_program() -> Path:
    """The program's source directory in the checkout."""
    src = ROOT / "src"
    if not (src / "choicelattice" / "__init__.py").is_file():
        raise MissingProgram(f"no choicelattice package under {src}")
    return src


def load_program() -> SimpleNamespace:
    """Import choicelattice afresh from ``src/`` of the checkout.

    Earlier imports are dropped first, so every set-up pays for the import
    and starts with empty caches.  An installed copy elsewhere is never used.
    """
    src = require_program()
    for name in [m for m in sys.modules
                 if m == "choicelattice" or m.startswith("choicelattice.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    package = importlib.import_module("choicelattice")
    if Path(package.__file__).resolve().parent != src / "choicelattice":
        raise MissingProgram(f"choicelattice was imported from {package.__file__}")
    return SimpleNamespace(**{m: importlib.import_module(f"choicelattice.{m}")
                              for m in MODULES})


@dataclass
class Op:
    """One closed-loop operation.

    ``run`` is the only timed part.  ``canon`` turns its output into plain
    values, and ``check`` returns an error message for a wrong output, or
    None.  Operations that share a ``key`` have the same input, so an output
    equal to one already checked needs no second check.
    """

    kind: str
    key: Hashable
    run: Callable[[], Any]
    canon: Callable[[Any], Any]
    check: Callable[[Any], str | None]


def warm_up(op: Op) -> None:
    """Run and check one operation outside the timed loop.

    A failure here is left for the timed loop to count and report.
    """
    try:
        op.check(op.canon(op.run()))
    except Exception:
        pass


def full_domain(lib, n: int, symbols=None):
    """The program's full domain on n alternatives, checked against the
    canonical set order that the reference routines and all picks assume."""
    dom = lib.core.ChoiceDomain.full(symbols or letters(n))
    if dom.sets != ref.full_sets(n):
        raise RuntimeError("the program's canonical set order changed")
    return dom


def rng(seed: int | str, *labels) -> random.Random:
    """A generator fixed by the seed and the labels, and by nothing else."""
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def letters(n: int) -> tuple[str, ...]:
    return tuple("abcdefghijklmnopqrstuvwxyz"[:n])


def shuffled(r: random.Random, items) -> list:
    items = list(items)
    r.shuffle(items)
    return items


def integer_weights(r: random.Random, k: int, low: int = 1, high: int = 97):
    """k random weights summing to one, as exact fractions."""
    raw = [r.randint(low, high) for _ in range(k)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]
