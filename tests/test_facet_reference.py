"""Differential test: facet-based operations against face-explicit references.

Each reference below is a loop over the full face set, the way the engine
computed these operations when a complex stored every face.  The references
run on ``K.face_bits`` and are compared with the engine on every complex from
``enumerate_complexes(n)`` for n <= 4, the void complex included.
"""

import itertools

import pytest

from obstrukt import (
    AddTrivialOff,
    AddTrivialOn,
    Codeword,
    Duplicate,
    Include,
    NeuralCode,
    Permute,
    Project,
    SimplicialComplex,
    alexander_dual,
    dual_complex,
    facet_intersection,
    image_complex,
    link,
    restriction,
    sr_ideal,
)
from obstrukt.codemaps import resolve_step
from obstrukt.collapse import _delete_bit
from obstrukt.errors import FaceNotInComplex

from conftest import cone, enumerate_complexes

NS = [1, 2, 3, 4]


def ref_closure(masks) -> frozenset[int]:
    out = set()
    for m in masks:
        out.update(s for s in range(m + 1) if s & ~m == 0)
    return frozenset(out)


def ref_maximal(faces) -> frozenset[int]:
    return frozenset(m for m in faces if not any(m != v and m & ~v == 0 for v in faces))


def ref_link(faces, s):
    return frozenset(m for m in faces if m & s == 0 and (m | s) in faces)


def ref_restriction(faces, gmasks):
    return frozenset(m for m in faces if any(m & ~g == 0 for g in gmasks))


def ref_facet_intersection(faces, s, n):
    acc = (1 << n) - 1
    for f in ref_maximal(faces):
        if s & ~f == 0:
            acc &= f
    return acc


def ref_minimal_non_faces(faces, n):
    out = set()
    for m in range(1 << n):
        if m not in faces and all((m ^ (1 << i)) in faces for i in range(n) if m >> i & 1):
            out.add(m)
    return frozenset(out)


def ref_minimal_transversals(edges, n):
    hitting = [m for m in range(1 << n) if all(m & e for e in edges)]
    return ref_minimal(hitting)


def ref_minimal(masks) -> frozenset[int]:
    return frozenset(m for m in masks if not any(m != v and v & ~m == 0 for v in masks))


def ref_dual(faces, n):
    top = (1 << n) - 1
    return frozenset(m for m in range(1 << n) if (top ^ m) not in faces)


def steps_for(n):
    yield from (Permute(g) for g in itertools.permutations(range(1, n + 1)))
    yield AddTrivialOn()
    yield AddTrivialOff()
    yield from (Duplicate(s) for s in range(1, n + 1))
    if n >= 2:
        yield from (Project(d) for d in range(1, n + 1))
    yield Include(NeuralCode(n, frozenset()))


@pytest.mark.parametrize("n,count", [(1, 3), (2, 6), (3, 20), (4, 168)])
def test_faces_derive_from_facets(n, count):
    seen = set()
    for K in enumerate_complexes(n):
        faces = K.face_bits
        assert ref_closure(faces) == faces
        assert ref_maximal(faces) == K.facet_bits
        assert len(K) == len(faces)
        for m in range(1 << n):
            assert (Codeword(m, n) in K) == (m in faces)
        seen.add(faces)
    assert len(seen) == count


@pytest.mark.parametrize("n", NS)
def test_face_operations(n):
    for K in enumerate_complexes(n):
        faces = K.face_bits
        for m in range(1 << n):
            sigma = Codeword(m, n)
            if m not in faces:
                for op in (link, facet_intersection):
                    with pytest.raises(FaceNotInComplex):
                        op(K, sigma)
                continue
            assert link(K, sigma).face_bits == ref_link(faces, m)
            assert facet_intersection(K, sigma).bits == ref_facet_intersection(faces, m, n)


@pytest.mark.parametrize("n", NS)
def test_vertex_operations(n):
    for K in enumerate_complexes(n):
        faces = K.face_bits
        for v in range(1, n + 1):
            bit = 1 << (v - 1)
            kept = frozenset(m for m in faces if not m & bit)
            deleted = SimplicialComplex(n, frozenset(_delete_bit(list(K.facet_bits), bit)))
            assert deleted.face_bits == kept
            if not K.vertex_bits & bit:
                assert cone(K, v).face_bits == faces | {m | bit for m in faces}
        apex = 1 << n
        C = cone(K, n + 1)
        assert C.n == n + 1
        assert C.face_bits == faces | {m | apex for m in faces}


@pytest.mark.parametrize("n", NS)
def test_restriction(n):
    subsets = range(1 << n)
    gammas = [()] + [(a,) for a in subsets] + list(itertools.combinations(subsets, 2))
    for K in enumerate_complexes(n):
        faces = K.face_bits
        for gmasks in gammas:
            R = restriction(K, [Codeword(g, n) for g in gmasks])
            assert R.face_bits == ref_restriction(faces, gmasks)


@pytest.mark.parametrize("n", NS)
def test_sr_ideal_dual_complex_and_alexander_dual(n):
    for K in enumerate_complexes(n):
        faces = K.face_bits
        assert dual_complex(K).face_bits == ref_dual(faces, n)
        if K.is_void:
            continue
        I = sr_ideal(K)
        assert I.gen_bits == ref_minimal_non_faces(faces, n)
        if not I.is_zero:
            assert alexander_dual(I).gen_bits == ref_minimal_transversals(I.gen_bits, n)


@pytest.mark.parametrize("n", NS)
def test_minimal_non_faces_feed_the_ideal_and_the_dual(n):
    top = (1 << n) - 1
    for K in enumerate_complexes(n):
        non_faces = ref_minimal_non_faces(K.face_bits, n)
        assert K.minimal_non_faces == non_faces
        assert dual_complex(K).facet_bits == {top ^ m for m in non_faces}
        if not K.is_void:
            assert sr_ideal(K).gen_bits == non_faces


@pytest.mark.parametrize("n", NS)
def test_image_complex(n):
    steps = list(steps_for(n))
    for K in enumerate_complexes(n):
        faces = K.face_bits
        for step in steps:
            out, r = image_complex(step, K), resolve_step(step, n)
            assert out.n == r.out_n
            assert out.face_bits == ref_closure(map(r.f, faces))
