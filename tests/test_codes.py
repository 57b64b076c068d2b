import json
import random

import pytest
from hypothesis import given, strategies as st

from obstrukt import (
    Codeword,
    MonomialIdeal,
    NeuralCode,
    NotationForm,
    SimplicialComplex,
    code_complex,
    code_to_json,
    facets,
    format_codeword,
    parse_codeword,
)
from obstrukt.errors import (
    MalformedText,
    NeuronOutOfRange,
    UnrepresentableForm,
    WidthMismatch,
)
from obstrukt.codes import binaries

from conftest import code, neural_codes, w

SET, WORD, BINARY = NotationForm.SET, NotationForm.WORD, NotationForm.BINARY


class TestParse:
    def test_set_form_example(self):
        assert parse_codeword("{1,3}", SET, 4).binary() == "1010"

    def test_binary_form_example(self):
        assert parse_codeword("0101", BINARY, 4).neurons() == (2, 4)

    def test_empty_symbol_in_every_form(self):
        for form in (SET, WORD, BINARY):
            assert parse_codeword("∅", form, 6) == Codeword.empty(6)

    def test_empty_spellings(self):
        assert parse_codeword("{}", SET, 4) == Codeword.empty(4)
        assert parse_codeword("0000", BINARY, 4) == Codeword.empty(4)

    def test_word_form(self):
        assert parse_codeword("24", WORD, 4).neurons() == (2, 4)
        assert parse_codeword("42", WORD, 4).neurons() == (2, 4)

    def test_set_form_spaces(self):
        assert parse_codeword("{1, 3}", SET, 4).neurons() == (1, 3)

    def test_malformed(self):
        with pytest.raises(MalformedText):
            parse_codeword("1,3", SET, 4)
        with pytest.raises(MalformedText):
            parse_codeword("{1,,3}", SET, 4)
        with pytest.raises(MalformedText):
            parse_codeword("10a", WORD, 4)
        with pytest.raises(MalformedText):
            parse_codeword("012", BINARY, 3)
        with pytest.raises(MalformedText):
            parse_codeword("11", WORD, 4)  # duplicate neuron

    def test_neuron_out_of_range(self):
        with pytest.raises(NeuronOutOfRange):
            parse_codeword("{5}", SET, 4)
        with pytest.raises(NeuronOutOfRange):
            parse_codeword("5", WORD, 4)

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            parse_codeword("010", BINARY, 4)

    def test_word_form_needs_small_n(self):
        with pytest.raises(UnrepresentableForm):
            parse_codeword("12", WORD, 10)

    def test_malformed_column_position(self):
        with pytest.raises(MalformedText) as err:
            parse_codeword("10x", BINARY, 3)
        assert err.value.column == 3


class TestFormat:
    def test_binary_widths(self):
        assert format_codeword(Codeword(0b011, 3), BINARY) == "110"
        assert format_codeword(Codeword(0b0011, 4), BINARY) == "1100"

    def test_empty_word(self):
        assert format_codeword(Codeword.empty(5), WORD) == "∅"

    def test_set(self):
        assert format_codeword(Codeword(0b01010, 5), SET) == "{2,4}"

    def test_word_rejects_wide(self):
        with pytest.raises(UnrepresentableForm):
            format_codeword(Codeword(1 << 9, 12), WORD)

    @given(neural_codes(max_n=9))
    def test_round_trip_all_forms(self, c):
        for cw in c.words:
            for form in (SET, WORD, BINARY):
                assert parse_codeword(format_codeword(cw, form), form, c.n) == cw

    @given(st.integers(1, 64), st.data())
    def test_round_trip_wide_binary_and_set(self, n, data):
        bits = data.draw(st.integers(0, (1 << n) - 1))
        cw = Codeword(bits, n)
        for form in (SET, BINARY):
            assert parse_codeword(format_codeword(cw, form), form, n) == cw

    @given(st.integers(1, 64), st.data())
    def test_face_list_formatter_matches_codeword_binary(self, n, data):
        top = (1 << n) - 1
        masks = data.draw(st.frozensets(st.integers(0, top), max_size=12)) | {0, top}
        assert binaries(masks, n) == sorted(Codeword(m, n).binary() for m in masks)


    @pytest.mark.parametrize("n", range(1, 65))
    def test_face_list_tables_match_format_at_every_width(self, n):
        """The table-read strings are byte-identical to the ``format``
        reference: every mask up to n = 10, and past that 0, the top mask,
        each single bit and seeded masks; a one-shot iterator reads the
        same."""
        top = (1 << n) - 1
        if n <= 10:
            masks = list(range(top + 1))
        else:
            rng = random.Random(n)
            masks = [0, top, *(1 << i for i in range(n)), *(rng.getrandbits(n) for _ in range(200))]
        reference = sorted(format(m, f"0{n}b")[::-1] for m in masks)
        assert binaries(masks, n) == reference
        assert binaries(iter(masks), n) == reference


class TestFacets:
    def test_antichain_stays(self):
        c = code(["24", "35", "45", "123"], 6)
        # oracle: pairwise containment check shows an antichain
        for a in c.masks:
            for b in c.masks:
                assert a == b or a & ~b
        assert facets(c) == c.words

    def test_dominated_word_dropped(self):
        c = code(["1", "12", "13", "24"], 4)
        assert facets(c) == frozenset({w("12", 4), w("13", 4), w("24", 4)})

    def test_single_empty_word(self):
        c = NeuralCode(3, frozenset({0}))
        assert facets(c) == c.words

    @given(neural_codes())
    def test_idempotent(self, c):
        first = facets(c)
        again = facets(NeuralCode(c.n, (f.bits for f in first)))
        assert first == again

    @given(neural_codes())
    def test_matches_complex_facets(self, c):
        K = code_complex(c)
        if K.is_void:
            assert not facets(c)
        else:
            assert facets(c) == frozenset(K.facet_index())

    @given(neural_codes())
    def test_every_word_below_some_facet(self, c):
        tops = facets(c)
        for m in c.masks:
            assert any(m & ~t.bits == 0 for t in tops)


def test_code_json_sorted():
    c = code(["123", "24", "2"], 4)
    payload = json.loads(code_to_json(c))
    assert payload == {"n": 4, "words": ["0100", "0101", "1110"]}
    assert payload["words"] == sorted(payload["words"])


def test_code_stores_masks_and_views_words():
    c = NeuralCode(3, [0b011, 0, 0b011])
    assert c.masks == frozenset({0, 0b011})
    assert c == NeuralCode(3, {0, 0b011}) and hash(c) == hash(NeuralCode(3, {0, 0b011}))
    assert c.words == frozenset({Codeword.empty(3), Codeword(0b011, 3)})
    assert repr(c) == "NeuralCode(n=3, {000,110})"
    assert repr(NeuralCode(2, [])) == "NeuralCode(n=2, {})"
    for bad in (0b1000, -1):
        with pytest.raises(WidthMismatch):
            NeuralCode(3, [bad])


def test_empty_word_membership_is_preserved():
    with_empty = code(["∅", "1"], 2)
    without = code(["1"], 2)
    assert Codeword.empty(2) in with_empty.words
    assert Codeword.empty(2) not in without.words
    assert len(with_empty.masks) == 2


# Each checked constructor, its arguments for width n and one mask m, and
# the nouns of its messages, which must read exactly as below.
CHECKED = {
    "Codeword": (lambda n, m: Codeword(m, n), "neuron", "bit pattern"),
    "NeuralCode": (lambda n, m: NeuralCode(n, [m]), "neuron", "word"),
    "SimplicialComplex": (lambda n, m: SimplicialComplex(n, frozenset({m})), "vertex", "facet"),
    "MonomialIdeal": (lambda n, m: MonomialIdeal(n, frozenset({m})), "variable", "generator"),
}


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_width_messages(name):
    make, count, noun = CHECKED[name]
    for n in (0, 65):
        with pytest.raises(NeuronOutOfRange) as info:
            make(n, 0)
        assert str(info.value) == f"{count} count must be in 1..64, got {n}"
    for m, shown in ((0b1000, "0x8"), (-1, "-0x1")):
        with pytest.raises(WidthMismatch) as info:
            make(3, m)
        assert str(info.value) == f"{noun} {shown} does not fit width 3"


def test_parse_width_message():
    for n in (0, 65):
        with pytest.raises(NeuronOutOfRange) as info:
            parse_codeword("∅", SET, n)
        assert str(info.value) == f"neuron count must be in 1..64, got {n}"
