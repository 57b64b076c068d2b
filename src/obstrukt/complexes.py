"""Simplicial-complex kernel: each complex is stored as its facets.

The antichain of maximal faces, as bit masks, is the only stored state; every
operation works on it.  The constructor checks the width and the antichain;
every construction of the engine, whose facets are an antichain that fits by
how it is built, goes through ``SimplicialComplex.trusted``, which checks
nothing.  A face set is built by the pass that reads it and is
not kept, so a complex held as a memo key holds its facets alone.  The one
face listing, ``face_bits``, refuses a complex of more than
``MAX_LISTED_FACES`` faces, counted on its facets (``face_count``).  Only
``minimal_non_faces`` is cached on the complex: ``sr_ideal`` and
``dual_complex`` share its one Berge pass.  The void complex (no faces at all)
has no facets and is a first-class value, distinct from the complex whose
only face is the empty set; the latter is the link of a facet and is not
contractible.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator

from .codes import Codeword, NeuralCode, _Record, binaries, check_width
from .errors import FaceNotInComplex, TooManyFaces, VoidComplex, WidthMismatch

# The full simplex on 20 vertices, 2^20 faces, is the largest complex whose
# faces are listed.
MAX_LISTED_FACES = 1 << 20


def iter_submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` as masks, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def maximal_masks(masks: Iterable[int]) -> frozenset[int]:
    """Antichain of masks maximal under bitwise containment.

    Masks are scanned by decreasing size, so anything containing a mask was
    seen before it and is either kept or inside a kept mask.
    """
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if all(m & ~k for k in kept):
            kept.append(m)
    return frozenset(kept)


def minimal_transversals(edges: Iterable[int]) -> frozenset[int]:
    """Minimal masks meeting every given mask (Berge's algorithm).

    No edges give {0}; an empty edge gives no transversal at all.  When edge
    e is added, the old transversals that miss e are extended by one vertex
    of e.  These extensions are pairwise incomparable and none lies below an
    old transversal that meets e, so an extension is minimal unless it
    contains one of those.
    """
    found = {0}
    for e in sorted(edges):
        hit = [t for t in found if t & e]
        missed = [t for t in found if not t & e]
        found = set(hit)
        for t in missed:
            rest = e
            while rest:
                low = rest & -rest
                grown = t | low
                if not any(h & ~grown == 0 for h in hit):
                    found.add(grown)
                rest ^= low
    return frozenset(found)


def face_bound(facets: Iterable[int]) -> int:
    """Σ_F 2^|F|, at least the number of faces of the complex with these
    facets."""
    return sum(1 << f.bit_count() for f in facets)


def link_euler_characteristics(facets: Iterable[int]) -> dict[int, int]:
    """Reduced Euler characteristic of the link of every face that is an
    intersection of facets, by face mask, from the facets alone; the link of
    any other face is a cone, with χ̃ = 0.  A face σ maps to the sum of
    (-1)^|S| over the nonempty sets S of facets that meet in σ, which is
    χ̃(lk σ) by inclusion-exclusion over the simplices F ∖ σ covering the
    link: it is the Möbius value μ(σ, 1̂) of the intersection lattice with a
    top added (Rota, On the foundations of combinatorial theory I, 1964).
    The facets are added one at a time: every set S of earlier facets, with
    meet m, gains the set S ∪ {F}, with meet m ∩ F and the opposite sign.
    The keys are the whole lattice, faces whose value is 0 included."""
    chi: dict[int, int] = {}
    get = chi.get
    for f in facets:
        for m, v in list(chi.items()):
            m &= f
            chi[m] = get(m, 0) - v
        chi[f] = get(f, 0) - 1
    return chi


def face_count(facets: Iterable[int]) -> int:
    """Number of faces of the complex with these facets, listing none: the
    complex is the union of the simplices on its facets, so by
    inclusion-exclusion it has -Σ_σ χ̃(lk σ)·2^|σ| faces over the facet
    intersections σ."""
    return -sum(chi << m.bit_count() for m, chi in link_euler_characteristics(facets).items())


def _check_listable(facets: frozenset[int]) -> None:
    """Refuse a complex of more than ``MAX_LISTED_FACES`` faces, counted
    exactly only when ``face_bound`` exceeds the limit."""
    if face_bound(facets) > MAX_LISTED_FACES and (count := face_count(facets)) > MAX_LISTED_FACES:
        raise TooManyFaces(f"faces are listed for complexes of at most {MAX_LISTED_FACES} "
                           f"faces; the complex has {count}")


class SimplicialComplex(_Record):
    """A simplicial complex on {1, ..., n}, given by its facets; faces and
    vertices are derived on each read, and only ``minimal_non_faces`` is kept."""

    _fields = ("n", "facet_bits")

    def __init__(self, n: int, facet_bits: frozenset[int]) -> None:
        check_width(n, "vertex", "facet", facet_bits)
        for m in facet_bits:
            for f in facet_bits:
                if m & ~f == 0 and m != f:
                    raise ValueError(f"facet {m:#x} lies inside facet {f:#x}")
        d = self.__dict__
        d["n"] = n
        d["facet_bits"] = facet_bits

    @classmethod
    def trusted(cls, n: int, facet_bits: frozenset[int]) -> "SimplicialComplex":
        """The complex on ``facet_bits``, built with no check: the engine's
        constructions come here, each making an antichain of masks that fit
        width n by how it is built.  The constructor checks what comes from
        outside."""
        K = object.__new__(cls)
        d = K.__dict__
        d["n"] = n
        d["facet_bits"] = facet_bits
        return K

    @classmethod
    def from_masks(cls, masks: Iterable[int], n: int) -> "SimplicialComplex":
        """Smallest complex containing the given faces (downward closure).
        The maximal masks are an antichain; the width is checked on them,
        since a mask that does not fit lies under one of them that does
        not."""
        facets = maximal_masks(masks)
        check_width(n, "vertex", "facet", facets)
        return cls.trusted(n, facets)

    @property
    def is_void(self) -> bool:
        return not self.facet_bits

    @property
    def face_bits(self) -> frozenset[int]:
        _check_listable(self.facet_bits)
        faces: set[int] = set()
        for f in self.facet_bits:
            faces.update(iter_submasks(f))
        return frozenset(faces)

    @cached_property
    def minimal_non_faces(self) -> frozenset[int]:
        """Minimal non-faces as masks: the minimal transversals of the
        complements of the facets (Miller-Sturmfels, Combinatorial
        Commutative Algebra, Thm 1.7); the void complex has ∅ alone."""
        top = (1 << self.n) - 1
        return minimal_transversals(top ^ f for f in self.facet_bits)

    @property
    def vertex_bits(self) -> int:
        mask = 0
        for m in self.facet_bits:
            mask |= m
        return mask

    @property
    def dim(self) -> int:
        """Max face dimension; -1 for the complex {∅}.  Undefined when void."""
        if self.is_void:
            raise VoidComplex("the void complex has no dimension")
        return max(m.bit_count() for m in self.facet_bits) - 1

    def faces(self) -> frozenset[Codeword]:
        return frozenset(Codeword(m, self.n) for m in self.face_bits)

    def facet_index(self) -> tuple[Codeword, ...]:
        return tuple(sorted((Codeword(m, self.n) for m in self.facet_bits), key=Codeword.binary))

    def __contains__(self, face: Codeword) -> bool:
        return face.n == self.n and any(face.bits & ~f == 0 for f in self.facet_bits)

    def __len__(self) -> int:
        return len(self.face_bits)

    def __repr__(self) -> str:
        if self.is_void:
            return f"SimplicialComplex(n={self.n}, void)"
        inner = ",".join(c.binary() for c in self.facet_index())
        return f"SimplicialComplex(n={self.n}, facets={{{inner}}})"


def code_complex(code: NeuralCode) -> SimplicialComplex:
    """Smallest simplicial complex containing every codeword of the code.

    The empty code yields the void complex.
    """
    return SimplicialComplex.trusted(code.n, maximal_masks(code.masks))


def facets(code: NeuralCode) -> frozenset[Codeword]:
    """Maximal codewords: the facets of the code's complex."""
    return frozenset(Codeword(m, code.n) for m in code_complex(code).facet_bits)


def _facets_over(K: SimplicialComplex, sigma: Codeword) -> tuple[int, list[int]]:
    """sigma as a mask and the facets containing it; sigma must be a face."""
    if sigma.n != K.n:
        raise WidthMismatch(f"face width {sigma.n} differs from complex width {K.n}")
    s = sigma.bits
    over = [f for f in K.facet_bits if s & ~f == 0]
    if not over:
        raise FaceNotInComplex(f"{sigma!r} is not a face of the complex")
    return s, over


def link(K: SimplicialComplex, sigma: Codeword) -> SimplicialComplex:
    """Faces disjoint from sigma whose union with sigma is a face of K.

    Its facets are F ∖ sigma for the facets F containing sigma; these form an
    antichain because the F do.
    """
    s, over = _facets_over(K, sigma)
    return SimplicialComplex.trusted(K.n, frozenset(f & ~s for f in over))


def restriction(K: SimplicialComplex, gamma: Iterable[Codeword]) -> SimplicialComplex:
    """K restricted to the sets of gamma: faces contained in some member."""
    gmasks = []
    for g in gamma:
        if g.n != K.n:
            raise WidthMismatch(f"restriction set width {g.n} differs from complex width {K.n}")
        gmasks.append(g.bits)
    return SimplicialComplex.from_masks((f & g for f in K.facet_bits for g in gmasks), K.n)


def facet_intersection(K: SimplicialComplex, sigma: Codeword) -> Codeword:
    """Intersection of all facets containing sigma (contains sigma itself).

    Whenever the result differs from sigma, the link of sigma is a cone and
    hence contractible.
    """
    _, over = _facets_over(K, sigma)
    acc = over[0]
    for f in over:
        acc &= f
    return Codeword(acc, K.n)


def dual_complex(K: SimplicialComplex) -> SimplicialComplex:
    """Combinatorial Alexander dual: complements of non-faces.

    Its facets are the complements of the minimal non-faces of K.  The dual
    of the full simplex is void and vice versa.
    """
    top = (1 << K.n) - 1
    return SimplicialComplex.trusted(K.n, frozenset(top ^ m for m in K.minimal_non_faces))


def complex_to_json_dict(K: SimplicialComplex) -> dict:
    """``{"n": int, "facets": [...]}`` with sorted binary strings."""
    return {"n": K.n, "facets": binaries(K.facet_bits, K.n)}
