"""Exact reduced simplicial homology via boundary-matrix ranks.

The chain complex is augmented: the empty face spans degree -1, so the
complex {∅} has one dimension of homology in degree -1.  Ranks are computed
exactly, over GF(2) with bit-set Gaussian elimination and over the rationals
with fraction-free sparse integer elimination.  One builder,
``_boundary_columns``, gives each boundary column as a packed row bitset,
which the GF(2) rank reads as it is; ``_dense`` restores the signs for the
rational rank and for ``boundary_matrix``.  ``reduced_homology`` always
ranks the complex it is given, and the tests keep it as the independent
oracle; callers that need only the homotopy type
(``collapse.core_homology`` and ``collapse.contractibility``, the mandatory
partition, the duplicate theorem's link check) go through
``collapse.link_profile``, which answers a cone or a complex that collapses
to a point without ranks and ranks any other complex on its strong-collapse
core, with each collapse stage decided once per relabelled copy.  A core
on k vertices with more than 2^(k-1) faces is handed to
``reduced_homology`` as its Alexander dual, which has fewer.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import gcd

from .codes import _Record
from .errors import DegreeOutOfRange, VoidComplex
from .complexes import SimplicialComplex


class Field(Enum):
    GF2 = "GF2"
    RATIONAL = "Q"


class HomologyProfile(_Record):
    """Reduced Betti numbers by degree, starting at degree -1.

    Trailing zeros are stripped on construction, so profiles of complexes of
    different dimensions compare equal when their homology agrees in every
    degree.
    """

    _fields = ("field", "betti")

    def __init__(self, field: Field, betti: tuple[int, ...]) -> None:
        while betti and not betti[-1]:
            betti = betti[:-1]
        d = self.__dict__
        d["field"] = field
        d["betti"] = betti

    def dim_at(self, degree: int) -> int:
        idx = degree + 1
        if 0 <= idx < len(self.betti):
            return self.betti[idx]
        return 0

    @property
    def is_trivial(self) -> bool:
        return not self.betti

    def nonzero_degrees(self) -> tuple[int, ...]:
        return tuple(i - 1 for i, b in enumerate(self.betti) if b)

    def alternating_sum(self) -> int:
        # Σ (-1)^i dim H̃_i, the reduced Euler characteristic.
        total = 0
        for idx, b in enumerate(self.betti):
            degree = idx - 1
            total += b if degree % 2 == 0 else -b
        return total

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.value,
            "dims": {str(i - 1): b for i, b in enumerate(self.betti) if b},
        }


def _grades(K: SimplicialComplex) -> list[list[int]]:
    """Faces grouped by cardinality, each grade sorted by bit-vector value."""
    grades: list[list[int]] = [[] for _ in range(K.dim + 2)]
    for m in sorted(K.face_bits):
        grades[m.bit_count()].append(m)
    return grades


def boundary_matrix(K: SimplicialComplex, i: int, field: Field) -> list[list[int]]:
    """Matrix of the boundary map from degree-i chains to degree-(i-1) chains.

    Rows are indexed by (i-1)-dimensional faces and columns by i-dimensional
    faces, both in increasing bit-vector order.  Over the rationals the entry
    for deleting the j-th smallest vertex is (-1)^j; over GF(2) it is 1.
    """
    if K.is_void:
        raise VoidComplex("boundary matrix of the void complex")
    if not -1 <= i <= K.dim:
        raise DegreeOutOfRange(f"degree {i} outside -1..{K.dim}")
    grades = _grades(K)
    rows = grades[i] if i >= 0 else []
    return _dense(len(rows), _boundary_columns(rows, grades[i + 1]), field)


def _boundary_columns(rows: list[int], cols: list[int]) -> list[int]:
    """Each column face's boundary as a packed row bitset: bit r is set when
    deleting one vertex of the face gives row face r."""
    row_bit = {m: 1 << r for r, m in enumerate(rows)}
    columns = []
    for m in cols:
        col = 0
        rest = m
        while rest:
            low = rest & -rest
            col |= row_bit[m ^ low]
            rest ^= low
        columns.append(col)
    return columns


def _dense(nrows: int, columns: list[int], field: Field) -> list[list[int]]:
    """Row-major matrix of packed boundary columns, with their signs over the
    rationals (over GF(2) every entry is 1).  Rows ascend by mask, and
    deleting a lower vertex leaves a higher mask, so deleting the j-th
    smallest vertex (counting from 0) gives the j-th largest row of the
    column, whose sign is (-1)^j."""
    matrix = [[0] * len(columns) for _ in range(nrows)]
    for c, col in enumerate(columns):
        sign = 1
        while col:
            r = col.bit_length() - 1
            matrix[r][c] = sign if field is Field.RATIONAL else 1
            sign = -sign
            col ^= 1 << r
    return matrix


def rank_gf2(columns: list[int]) -> int:
    """Rank over GF(2) of a list of column vectors packed as ints."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col & -col
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                rank += 1
                break
            col ^= other
    return rank


def rank_fraction_free(rows: list[list[int]]) -> int:
    """Exact rank over the rationals by fraction-free sparse elimination:
    each row is cleared against kept rows, which have distinct leading
    columns, by integer combinations and divided by the gcd of its entries."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        vec = {c: x for c, x in enumerate(row) if x}
        while vec:
            lead = min(vec)
            other = pivots.get(lead)
            if other is None:
                pivots[lead] = vec
                break
            a, b = other[lead], vec[lead]
            vec = {c: a * x for c, x in vec.items()}
            for c, y in other.items():
                x = vec.get(c, 0) - b * y
                if x:
                    vec[c] = x
                else:
                    del vec[c]
            g = gcd(*vec.values())
            if g > 1:
                vec = {c: x // g for c, x in vec.items()}
    return len(pivots)


def _boundary_rank(grades: list[list[int]], k: int, field: Field, room: int) -> int:
    """Rank of the boundary map sending k-vertex faces to (k-1)-vertex faces.

    Its image lies in a kernel of dimension at most ``room``, and its GF(2)
    rank is a lower bound of its rational rank (an odd minor is nonzero), so
    over the rationals integer elimination runs only below that bound."""
    if k <= 0 or k >= len(grades) or not grades[k]:
        return 0
    columns = _boundary_columns(grades[k - 1], grades[k])
    rank = rank_gf2(columns)
    if field is Field.GF2 or rank >= room:
        return rank
    return rank_fraction_free(_dense(len(grades[k - 1]), columns, field))


# Bounded like the partition memo: a long suite's complexes rarely recur.
@lru_cache(maxsize=1024)
def reduced_homology(K: SimplicialComplex, field: Field) -> HomologyProfile:
    """Dimensions of reduced homology in every degree from -1 up to dim K."""
    if K.is_void:
        raise VoidComplex("homology of the void complex")
    grades = _grades(K)
    top = len(grades) - 1  # largest face cardinality
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        room = min(len(grades[k]), len(grades[k - 1]) - ranks[k - 1])
        ranks[k] = _boundary_rank(grades, k, field, room)
    return HomologyProfile(field, tuple(len(grades[k]) - ranks[k] - ranks[k + 1]
                                        for k in range(top + 1)))


def euler_characteristic(K: SimplicialComplex) -> int:
    """Reduced Euler characteristic Σ (-1)^dim τ over the faces τ of K; the
    empty face counts -1."""
    if K.is_void:
        raise VoidComplex("Euler characteristic of the void complex")
    return sum(1 if m.bit_count() % 2 else -1 for m in K.face_bits)
