"""Square-free monomial ideals given by minimal generators.

A generator is the support of a square-free monomial, stored as a bit mask
over the variables.  Quotient rings are never materialised: every statement
this package needs reduces to generator-set combinatorics under divisibility,
relabelling and zero-padding.
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterable

from .codes import Codeword, _Record, check_width
from .complexes import SimplicialComplex, minimal_transversals
from .errors import DegenerateDualWarning, NotAPermutation, VoidComplex, WidthMismatch


def minimal_masks(masks: Iterable[int]) -> frozenset[int]:
    """Antichain of masks minimal under bitwise containment."""
    pool = set(masks)
    return frozenset(
        m for m in pool if not any(v != m and v & ~m == 0 for v in pool)
    )


class MonomialIdeal(_Record):
    """Ideal generated by square-free monomials; ``gen_bits`` is an antichain."""

    _fields = ("n", "gen_bits")

    def __init__(self, n: int, gen_bits: Iterable[int]) -> None:
        gen_bits = frozenset(gen_bits)
        check_width(n, "variable", "generator", gen_bits)
        if minimal_masks(gen_bits) != gen_bits:
            raise ValueError("generators must form an antichain under divisibility")
        d = self.__dict__
        d["n"] = n
        d["gen_bits"] = gen_bits

    @classmethod
    def trusted(cls, n: int, gen_bits: frozenset[int]) -> "MonomialIdeal":
        """The ideal on ``gen_bits``, built with no check, as
        ``SimplicialComplex.trusted`` builds a complex: the generators of
        every ideal the engine makes are an antichain that fits width n by
        how they are made."""
        I = object.__new__(cls)
        d = I.__dict__
        d["n"] = n
        d["gen_bits"] = gen_bits
        return I

    @property
    def is_zero(self) -> bool:
        return not self.gen_bits

    def contains_monomial(self, support: Codeword) -> bool:
        """Monotone membership: x^σ lies in the ideal iff some generator divides it."""
        if support.n != self.n:
            raise WidthMismatch(f"support width {support.n} differs from {self.n}")
        return any(g & ~support.bits == 0 for g in self.gen_bits)

    def to_lists(self) -> list[list[int]]:
        return sorted([i + 1 for i in range(self.n) if g >> i & 1] for g in self.gen_bits)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"MonomialIdeal(n={self.n}, zero)"
        # the generator of empty support is the unit monomial, written 1
        gens = ", ".join("*".join(f"x{i}" for i in g) or "1" for g in self.to_lists())
        return f"MonomialIdeal(n={self.n}, <{gens}>)"


def sr_ideal(K: SimplicialComplex) -> MonomialIdeal:
    """Stanley-Reisner ideal: generated by the minimal non-faces of K."""
    if K.is_void:
        raise VoidComplex("Stanley-Reisner ideal of the void complex")
    return MonomialIdeal.trusted(K.n, K.minimal_non_faces)


def alexander_dual(I: MonomialIdeal) -> MonomialIdeal:
    """Intersection of the variable ideals of the generators.

    Its generators are the minimal transversals of the generator supports.
    The dual of the zero ideal is returned unchanged with a
    :class:`DegenerateDualWarning`.
    """
    if I.is_zero:
        warnings.warn(
            "Alexander dual of the zero ideal is degenerate; returning the zero ideal",
            DegenerateDualWarning,
            stacklevel=2,
        )
        return I
    return MonomialIdeal.trusted(I.n, minimal_transversals(I.gen_bits))


def dual_ideal(K: SimplicialComplex) -> MonomialIdeal:
    """``alexander_dual(sr_ideal(K))`` read off the facets, with no
    transversal pass: the ideal of K's Alexander dual complex is generated
    by the complements of K's facets (Miller-Sturmfels, Combinatorial
    Commutative Algebra, ch. 1).  The full simplex, whose ideal is zero,
    gives the unit ideal, that of its void dual."""
    if K.is_void:
        raise VoidComplex("dual ideal of the void complex")
    top = (1 << K.n) - 1
    return MonomialIdeal.trusted(K.n, frozenset(top ^ f for f in K.facet_bits))


def ideal_contains(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """True when I ⊇ J, reading the narrower ideal zero-padded to the wider
    width: every generator of J is divisible by one of I."""
    return all(any(g & ~h == 0 for g in I.gen_bits) for h in J.gen_bits)


def permutation_tuple(gamma: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate gamma as a bijection of 1..n and return it as a tuple."""
    g = tuple(gamma)
    if len(g) != n or sorted(g) != list(range(1, n + 1)):
        raise NotAPermutation(f"{g!r} is not a permutation of 1..{n}")
    return g


def invert_permutation(gamma: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(gamma)
    for i, g in enumerate(gamma, start=1):
        inverse[g - 1] = i
    return tuple(inverse)


def mask_permuter(gamma: tuple[int, ...]) -> Callable[[int], int]:
    """The relabelling i ↦ γ(i) of a support, read from tables of mask
    images: one table per byte of the mask, each built by doubling (the
    masks using bit i are the earlier masks with γ(i)'s bit OR'ed in).  Up
    to n = 8 the one table is the map; past that the images of a mask's
    bytes are OR'ed."""
    tables = []
    for start in range(0, len(gamma), 8):
        table = [0]
        for g in gamma[start:start + 8]:
            table += [t | 1 << g - 1 for t in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__

    def permute(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & 255]
            mask >>= 8
        return out
    return permute


def permute_ideal(I: MonomialIdeal, gamma: Iterable[int]) -> MonomialIdeal:
    """Apply the variable relabelling x_i ↦ x_{γ(i)} to every generator."""
    permute = mask_permuter(permutation_tuple(gamma, I.n))
    return MonomialIdeal.trusted(I.n, frozenset(map(permute, I.gen_bits)))
