"""Model generators.

``gen_random_model`` draws seeded random models; ``choicelattice generate
--kind random`` prints them.
"""

from __future__ import annotations

import random as _stdrandom

from .core import ChoiceDomain, ChoiceError
from .models import ChoiceModel


def gen_random_model(seed: int, domain: ChoiceDomain, size: int) -> ChoiceModel:
    """Deterministic pseudorandom model of distinct functions."""
    total = 1
    for s in domain.sets:
        total *= len(s)
    if size < 1 or size > total:
        raise ChoiceError(f"size must be between 1 and {total}")
    rng = _stdrandom.Random(seed)
    seen: set[tuple[int, ...]] = set()
    while len(seen) < size:
        seen.add(tuple(rng.choice(s) for s in domain.sets))
    return ChoiceModel.from_picks(domain, seen)
