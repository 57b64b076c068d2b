"""Codewords and neural codes stored as fixed-width bit vectors.

A codeword is a subset of {1, ..., n} packed into one machine word: bit i-1
is set exactly when neuron i fires.  A neural code stores its words as these
masks; ``Codeword`` is the type that text is parsed into and printed from.
Three text notations are supported (set, word, binary) and round-trip
exactly.  All values are immutable.

``_Record`` is the base of the package's record classes: the methods a
frozen dataclass would generate, written once, so that defining a record
runs no code generation and importing the package loads neither
``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable

from .errors import (
    MalformedText,
    NeuronOutOfRange,
    UnrepresentableForm,
    WidthMismatch,
)

MAX_NEURONS = 64
EMPTY_SYMBOL = "∅"  # ∅


def check_width(n: int, count: str, noun: str = "", masks: Iterable[int] = ()) -> None:
    """Refuse a width n outside 1..MAX_NEURONS, then any of ``masks`` that
    does not fit it; ``count`` and ``noun`` name the width and a mask in the
    messages."""
    if not 1 <= n <= MAX_NEURONS:
        raise NeuronOutOfRange(f"{count} count must be in 1..{MAX_NEURONS}, got {n}")
    for m in masks:
        if m < 0 or m >> n:
            raise WidthMismatch(f"{noun} {m:#x} does not fit width {n}")


def _field_tuple(names: tuple[str, ...]) -> Callable[[object], tuple]:
    """The function from a record to the tuple of its fields ``names``; a
    record of one field or none compares and hashes a tuple too, as a
    dataclass does."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda record: (get(record),)
    return lambda record: ()


class _Record:
    """Base of the record classes: equality by type and value, hashing, the
    dataclass-format repr ``Name(field=value, ...)`` and refused assignment.

    A subclass names its fields in ``_fields``, in the order of its repr,
    and its own ``__init__`` stores them in the instance ``__dict__``, so
    ``cached_property``, pickling and copying work on it.  ``_compared``
    names the fields that equality and hashing read when not all of them.
    The one per-class value, the getter ``_key``, is set when the class is
    defined; it is read from the class, where a function is not bound as a
    method.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = _field_tuple(cls._fields if cls._compared is None else cls._compared)

    def __eq__(self, other: object) -> bool:
        cls = self.__class__
        if other.__class__ is cls:
            return cls._key(self) == cls._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.__class__._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # loaded on this error path alone

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class NotationForm(Enum):
    SET = "set"
    WORD = "word"
    BINARY = "binary"


class Codeword(_Record):
    """A subset of {1, ..., n}; ``bits`` holds bit i-1 for neuron i."""

    _fields = ("bits", "n")

    def __init__(self, bits: int, n: int) -> None:
        check_width(n, "neuron", "bit pattern", (bits,))
        d = self.__dict__
        d["bits"] = bits
        d["n"] = n

    @classmethod
    def empty(cls, n: int) -> "Codeword":
        return cls(0, n)

    def neurons(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def binary(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1]

    def __repr__(self) -> str:
        return f"Codeword({self.binary()!r})"


class NeuralCode(_Record):
    """A finite set of codewords on a declared neuron count, stored as the
    words' masks; ``words`` is their Codeword view, built when read.

    Membership of the empty codeword is significant and always preserved
    verbatim from the input.
    """

    _fields = ("n", "masks")

    def __init__(self, n: int, masks: Iterable[int]) -> None:
        masks = frozenset(masks)
        check_width(n, "neuron", "word", masks)
        d = self.__dict__
        d["n"] = n
        d["masks"] = masks

    @cached_property
    def words(self) -> frozenset[Codeword]:
        return frozenset(Codeword(m, self.n) for m in self.masks)

    def __repr__(self) -> str:
        return f"NeuralCode(n={self.n}, {{{','.join(binaries(self.masks, self.n))}}})"


def _parse_set_form(text: str, n: int) -> Codeword:
    if text == "{}":
        return Codeword.empty(n)
    if not (text.startswith("{") and text.endswith("}")):
        raise MalformedText(f"set form must look like {{1,3}} or {EMPTY_SYMBOL}: {text!r}", column=1)
    body = text[1:-1]
    if body.strip() == "":
        return Codeword.empty(n)
    bits = 0
    pos = 1  # column of first char inside the brace
    for chunk in body.split(","):
        token = chunk.strip()
        col = pos + 1 + chunk.index(token) if token else pos + 1
        if not token.isdigit():
            raise MalformedText(f"expected a neuron index, got {token!r}", column=col)
        i = int(token)
        if not 1 <= i <= n:
            raise NeuronOutOfRange(f"neuron {i} outside 1..{n}")
        if bits >> (i - 1) & 1:
            raise MalformedText(f"duplicate neuron {i}", column=col)
        bits |= 1 << (i - 1)
        pos += len(chunk) + 1
    return Codeword(bits, n)


def _parse_word_form(text: str, n: int) -> Codeword:
    if n > 9:
        raise UnrepresentableForm(f"word form needs n <= 9, got n = {n}")
    bits = 0
    for col, ch in enumerate(text, start=1):
        if not ch.isdigit() or ch == "0":
            raise MalformedText(f"word form allows digits 1-9 only, got {ch!r}", column=col)
        i = int(ch)
        if i > n:
            raise NeuronOutOfRange(f"neuron {i} outside 1..{n}")
        if bits >> (i - 1) & 1:
            raise MalformedText(f"duplicate neuron {i}", column=col)
        bits |= 1 << (i - 1)
    return Codeword(bits, n)


def _parse_binary_form(text: str, n: int) -> Codeword:
    if len(text) != n:
        raise WidthMismatch(f"binary string length {len(text)} differs from n = {n}")
    bits = 0
    for col, ch in enumerate(text, start=1):
        if ch == "1":
            bits |= 1 << (col - 1)
        elif ch != "0":
            raise MalformedText(f"binary form allows 0/1 only, got {ch!r}", column=col)
    return Codeword(bits, n)


def parse_codeword(text: str, form: NotationForm, n: int) -> Codeword:
    """Parse one codeword written in the given notation form.

    The empty codeword is written ``∅`` (any form), ``{}`` (set form) or a run
    of zeros (binary form).
    """
    check_width(n, "neuron")
    if text == EMPTY_SYMBOL:
        return Codeword.empty(n)
    if form is NotationForm.SET:
        return _parse_set_form(text, n)
    if form is NotationForm.WORD:
        if text == "":
            raise MalformedText(f"empty text; write {EMPTY_SYMBOL} for the empty codeword", column=1)
        return _parse_word_form(text, n)
    return _parse_binary_form(text, n)


def format_codeword(cw: Codeword, form: NotationForm) -> str:
    """Inverse of :func:`parse_codeword` for the same form and width."""
    if form is NotationForm.BINARY:
        return cw.binary()
    if len(cw) == 0:
        return EMPTY_SYMBOL
    if form is NotationForm.SET:
        return "{" + ",".join(str(i) for i in cw.neurons()) + "}"
    if cw.n > 9:
        raise UnrepresentableForm(f"word form needs n <= 9, got n = {cw.n}")
    return "".join(str(i) for i in cw.neurons())


def _bit_texts() -> tuple[tuple[str, ...], ...]:
    """Entry k of table w is the text of mask k at width w, for w = 0..8,
    each table built from the one before by doubling: the masks using bit
    w-1 are the earlier masks with a 1 appended."""
    tables = [("",)]
    for _ in range(8):
        last = tables[-1]
        tables.append(tuple(t + "0" for t in last) + tuple(t + "1" for t in last))
    return tuple(tables)


_TEXTS = _bit_texts()


def binaries(masks: Iterable[int], n: int) -> list[str]:
    """The face-list output format: masks of width n as binary strings
    (``Codeword.binary``), in sorted order.  Each string is read from the
    text tables: one entry up to n = 8, and past that one entry per byte of
    the mask, joined; column i of the masks' little-endian bytes holds
    every mask's byte i."""
    if n <= 8:
        return sorted(map(_TEXTS[n].__getitem__, masks))
    k = (n + 7) // 8
    data = b"".join([m.to_bytes(k, "little") for m in masks])
    columns = [map(_TEXTS[min(8, n - 8 * i)].__getitem__, data[i::k]) for i in range(k)]
    return sorted(map("".join, zip(*columns)))


def code_to_json(code: NeuralCode) -> str:
    """Render a code as ``{"n": int, "words": [...]}`` in the face-list format."""
    return json.dumps({"n": code.n, "words": binaries(code.masks, code.n)})
