"""Seeded random instances for the verification suites.

The generator is Python's Mersenne Twister (`random.Random`), whose output
for a fixed seed is stable across runs and platforms, so every sampled suite
is reproducible from (n, seed, density) alone.
"""

from __future__ import annotations

import random

from .codes import NeuralCode
from .errors import BadDensity, NeuronOutOfRange


def check_draw(n: int, density: float) -> None:
    """Raise unless codes on n neurons can be drawn at ``density``."""
    if not 1 <= n <= 16:
        raise NeuronOutOfRange(f"random codes enumerate all subsets; need 1 <= n <= 16, got {n}")
    if not 0 < density <= 1:
        raise BadDensity(f"density must be in (0, 1], got {density}")


def random_code(n: int, seed: int, density: float = 0.3) -> NeuralCode:
    """Include each nonempty subset of {1, ..., n} independently.

    Subsets are visited in increasing mask order; the empty codeword is never
    added here (its membership is meaningful and must be chosen explicitly).
    """
    check_draw(n, density)
    rng = random.Random(seed)
    masks = [m for m in range(1, 1 << n) if rng.random() < density]
    return NeuralCode(n, masks)
