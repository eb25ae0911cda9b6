"""Alphabets, degenerate symbols and strings, and the bracket/IUPAC parsers.

A degenerate symbol is a non-empty subset of the alphabet occupying one
string position, a bit mask over alphabet ranks, so "do two symbols
match" is a single integer AND. A degenerate string is stored in the
form the search reads (stage 1): one rank per position, where each
non-solid symbol gets its own placeholder rank past the alphabet, plus
the masks of its k non-solid sets. Positions are 1-based in every public
interface.
"""

from typing import Iterable, Iterator

import numpy as np


class ParseError(ValueError):
    """Input text could not be parsed into a degenerate string."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position  # 1-based character index, when known


class UnknownCharacter(ParseError):
    pass


class EmptyBracket(ParseError):
    pass


class UnclosedBracket(ParseError):
    pass


class UnknownCode(ParseError):
    pass


class OutOfRange(IndexError):
    pass


class EmptyPattern(ValueError):
    pass


# Metacharacters of the bracket grammar, never alphabet members.
_FORBIDDEN = frozenset("[],")


class Alphabet:
    """Ordered set of distinct single characters; rank = position in order."""

    __slots__ = ("symbols", "_ranks")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must contain at least one symbol")
        seen = set()
        for c in syms:
            if len(c) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {c!r}")
            if c in _FORBIDDEN or c.isspace():
                raise ValueError(f"reserved character {c!r} cannot be an alphabet symbol")
            if c in seen:
                raise ValueError(f"duplicate alphabet symbol {c!r}")
            seen.add(c)
        self.symbols = syms
        self._ranks = {c: r for r, c in enumerate(syms)}

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, ch: str) -> bool:
        return ch in self._ranks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"

    def rank(self, ch: str) -> int:
        try:
            return self._ranks[ch]
        except KeyError:
            raise UnknownCharacter(f"character {ch!r} is not in the alphabet") from None

    def char(self, rank: int) -> str:
        return self.symbols[rank]

    def fold(self, ch: str) -> str | None:
        """Case-fold ``ch`` onto an alphabet member, or None if impossible."""
        if ch in self._ranks:
            return ch
        for alt in (ch.lower(), ch.upper()):
            if alt in self._ranks:
                return alt
        return None


class DegenerateSymbol:
    """Non-empty subset of an alphabet, stored as a bit mask over ranks.

    Plain Python integers give word-at-a-time set operations for any
    alphabet size; the mask is immutable after construction.
    """

    __slots__ = ("alphabet", "mask")

    def __init__(self, alphabet: Alphabet, mask: int):
        if mask <= 0:
            raise ValueError("degenerate symbol must be a non-empty set")
        if mask >> len(alphabet):
            raise ValueError("mask has bits outside the alphabet")
        self.alphabet = alphabet
        self.mask = mask

    @classmethod
    def of(cls, alphabet: Alphabet, chars: Iterable[str]) -> "DegenerateSymbol":
        mask = 0
        for c in chars:
            mask |= 1 << alphabet.rank(c)
        return cls(alphabet, mask)

    @classmethod
    def solid(cls, alphabet: Alphabet, ch: str) -> "DegenerateSymbol":
        return cls(alphabet, 1 << alphabet.rank(ch))

    @property
    def is_solid(self) -> bool:
        return self.mask.bit_count() == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def chars(self) -> str:
        """Members in alphabet order."""
        return "".join(c for r, c in enumerate(self.alphabet.symbols) if self.mask >> r & 1)

    def solid_rank(self) -> int:
        if not self.is_solid:
            raise ValueError("symbol is not solid")
        return self.mask.bit_length() - 1

    def matches(self, other: "DegenerateSymbol") -> bool:
        if self.alphabet != other.alphabet:
            raise ValueError("symbols are over different alphabets")
        return self.mask & other.mask != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DegenerateSymbol)
            and self.alphabet == other.alphabet
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.mask))

    def __repr__(self) -> str:
        s = self.chars()
        return f"DegenerateSymbol({s if self.is_solid else '[' + s + ']'})"


def symbols_match(a: DegenerateSymbol, b: DegenerateSymbol) -> bool:
    """True iff the two symbol sets intersect. Symmetric, reflexive, and
    deliberately not transitive."""
    return a.matches(b)


class DegenerateString:
    """Immutable sequence of degenerate symbols over a single alphabet.

    ``ranks`` is a read-only int32 array: the alphabet rank at a solid
    position and sigma + j at the j-th non-solid position (j from 0, left
    to right). ``sets`` holds the k non-solid sets as masks, in the same
    order; Python integers hold a mask of any width, so every alphabet
    size has this one form. ``symbols``, ``symbol_at`` and iteration give
    ``DegenerateSymbol`` views.
    """

    __slots__ = ("alphabet", "ranks", "sets")

    def __init__(self, alphabet: Alphabet, symbols: Iterable[DegenerateSymbol]):
        syms = tuple(symbols)
        for s in syms:
            if s.alphabet != alphabet:
                raise ValueError("symbol alphabet does not match string alphabet")
        packed = _pack(alphabet, [s.mask for s in syms], np.arange(len(syms)))
        self.alphabet, self.ranks, self.sets = alphabet, packed.ranks, packed.sets

    def __len__(self) -> int:
        return len(self.ranks)

    def __iter__(self) -> Iterator[DegenerateSymbol]:
        return iter(self.symbols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DegenerateString)
            and self.alphabet == other.alphabet
            and np.array_equal(self.ranks, other.ranks)
            and self.sets == other.sets
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.ranks.tobytes(), self.sets))

    def __repr__(self) -> str:
        return f"DegenerateString({format_bracket(self)!r})"

    def __reduce__(self):
        return DegenerateString, (self.alphabet, self.symbols)  # copies get read-only ranks too

    def _rank_masks(self) -> list[int]:
        """The set of every rank: the sigma base symbols, then ``sets``."""
        return [1 << r for r in range(len(self.alphabet))] + list(self.sets)

    @property
    def symbols(self) -> tuple[DegenerateSymbol, ...]:
        views = [DegenerateSymbol(self.alphabet, mk) for mk in self._rank_masks()]
        return tuple(views[r] for r in self.ranks.tolist())

    @property
    def non_solid_positions(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(self.ranks >= len(self.alphabet)) + 1).tolist())

    @property
    def is_solid(self) -> bool:
        return not self.sets

    def is_conservative(self, k: int) -> bool:
        """At most ``k`` non-solid positions."""
        return len(self.sets) <= k

    def symbol_at(self, pos: int) -> DegenerateSymbol:
        """Symbol at 1-based position ``pos``."""
        if not 1 <= pos <= len(self):
            raise OutOfRange(f"position {pos} outside 1..{len(self)}")
        rank, sigma = int(self.ranks[pos - 1]), len(self.alphabet)
        mask = 1 << rank if rank < sigma else self.sets[rank - sigma]
        return DegenerateSymbol(self.alphabet, mask)

    def substring(self, i: int, j: int) -> "DegenerateString":
        """Symbols at 1-based positions i..j; i = j+1 yields the empty string."""
        if not (1 <= i <= j + 1 and j <= len(self)):
            raise OutOfRange(f"substring bounds ({i}, {j}) invalid for length {len(self)}")
        return _pack(self.alphabet, self._rank_masks(), self.ranks[i - 1 : j])


def _pack(alphabet: Alphabet, masks: list[int], codes: np.ndarray) -> DegenerateString:
    """The string whose position p holds the set ``masks[codes[p]]``.
    Python visits each entry of ``masks`` and each non-solid position
    once; the rest is numpy over ``codes``."""
    solid = np.array([mk.bit_count() == 1 for mk in masks], dtype=bool)
    ranks = np.array([mk.bit_length() - 1 for mk in masks], dtype=np.int32)[codes]
    placed = np.flatnonzero(~solid[codes])
    ranks[placed] = len(alphabet) + np.arange(len(placed))
    ranks.flags.writeable = False
    s = DegenerateString.__new__(DegenerateString)
    s.alphabet, s.ranks, s.sets = alphabet, ranks, tuple(masks[c] for c in codes[placed].tolist())
    return s


def _parse_characters(text: str, alphabet: Alphabet, mask_of, error, what) -> DegenerateString:
    """One symbol per character of ``text``. ``mask_of`` runs once per
    distinct character and gives its set, or None when the character is
    invalid; the first invalid character in text order raises ``error``.

    ASCII text, all sequence data, finds its distinct characters with a
    128-entry table instead of a sort: one pass, and no temporaries
    beyond the bytes and the codes. Other text sorts its code points."""
    if text.isascii():
        points = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        table = np.zeros(128, dtype=np.intp)
        table[points] = 1
        distinct = np.flatnonzero(table)
        table[distinct] = np.arange(distinct.size)
        codes = table[points]
    else:
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        distinct, codes = np.unique(points, return_inverse=True)
    masks = [mask_of(chr(c)) for c in distinct.tolist()]
    if None in masks:
        invalid = [d for d, mk in enumerate(masks) if mk is None]
        first = int(np.flatnonzero(np.isin(codes, invalid))[0])
        raise error(f"{what} {text[first]!r} at position {first + 1}", first + 1)
    return _pack(alphabet, masks, codes)


def parse_bracket(text: str, alphabet: Alphabet) -> DegenerateString:
    """Parse bracket notation, e.g. ``a[bc]da[bd]``.

    A bare character is a solid symbol; ``[xyz]`` is a set. Whitespace and
    commas inside a group are skipped, duplicate members collapse, and a
    singleton group normalizes to a solid symbol.
    """
    masks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "[":
            start = i + 1  # 1-based position of '['
            mask = 0
            i += 1
            while i < n and text[i] != "]":
                m = text[i]
                if m.isspace() or m == ",":
                    i += 1
                    continue
                folded = alphabet.fold(m)
                if folded is None:
                    raise UnknownCharacter(
                        f"unknown character {m!r} at position {i + 1}", i + 1
                    )
                mask |= 1 << alphabet.rank(folded)
                i += 1
            if i >= n:
                raise UnclosedBracket(f"bracket opened at position {start} is never closed", start)
            if mask == 0:
                raise EmptyBracket(f"empty bracket group at position {start}", start)
            masks.append(mask)
            i += 1
        else:
            folded = alphabet.fold(c)
            if folded is None:
                raise UnknownCharacter(f"unknown character {c!r} at position {i + 1}", i + 1)
            masks.append(1 << alphabet.rank(folded))
            i += 1
    return _pack(alphabet, masks, np.arange(len(masks)))


def parse_solid(text: str, alphabet: Alphabet) -> DegenerateString:
    """Parse a plain string of alphabet characters (every symbol solid)."""

    def mask_of(c):
        folded = alphabet.fold(c)
        return None if folded is None else 1 << alphabet.rank(folded)

    return _parse_characters(text, alphabet, mask_of, UnknownCharacter, "unknown character")


def format_bracket(s: DegenerateString) -> str:
    """Canonical bracket form: solid symbols bare, sets as ``[..]`` with
    members in alphabet order, no whitespace. Inverse of ``parse_bracket``."""
    parts = []
    for sym in s.symbols:
        parts.append(sym.chars() if sym.is_solid else f"[{sym.chars()}]")
    return "".join(parts)


#: The 15 standard nucleotide codes over {A, C, G, T}.
IUPAC_CODES = {
    "A": "A", "C": "C", "G": "G", "T": "T",
    "R": "AG", "Y": "CT", "S": "CG", "W": "AT", "K": "GT", "M": "AC",
    "B": "CGT", "D": "AGT", "H": "ACT", "V": "ACG",
    "N": "ACGT",
}

DNA_ALPHABET = Alphabet("ACGT")
_IUPAC_MASKS = {c: DegenerateSymbol.of(DNA_ALPHABET, m).mask for c, m in IUPAC_CODES.items()}


def parse_iupac(text: str) -> DegenerateString:
    """Parse IUPAC nucleotide codes (case-insensitive) over {A, C, G, T}."""
    return _parse_characters(
        text, DNA_ALPHABET, lambda c: _IUPAC_MASKS.get(c.upper()), UnknownCode, "unknown IUPAC code"
    )
