"""Exact matching of conservative degenerate patterns.

A degenerate string has set-valued positions; this package finds all
exact occurrences of such a pattern in a (possibly degenerate) text in
O(k*n) time after index construction, where k bounds the total number of
set-valued positions, and ships a brute-force reference matcher for
verification.
"""

from .core import (
    Alphabet,
    DegenerateString,
    DegenerateSymbol,
    DNA_ALPHABET,
    EmptyBracket,
    EmptyPattern,
    IUPAC_CODES,
    OutOfRange,
    ParseError,
    UnclosedBracket,
    UnknownCharacter,
    UnknownCode,
    format_bracket,
    parse_bracket,
    parse_iupac,
    parse_solid,
    symbols_match,
)
from .matcher import FAKE, REAL, MatchReport, find_occurrences
from .oracle import RandomInstanceSpec, generate_instance, naive_match

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "DegenerateString",
    "DegenerateSymbol",
    "DNA_ALPHABET",
    "EmptyBracket",
    "EmptyPattern",
    "FAKE",
    "IUPAC_CODES",
    "MatchReport",
    "OutOfRange",
    "ParseError",
    "REAL",
    "RandomInstanceSpec",
    "UnclosedBracket",
    "UnknownCharacter",
    "UnknownCode",
    "find_occurrences",
    "format_bracket",
    "generate_instance",
    "naive_match",
    "parse_bracket",
    "parse_iupac",
    "parse_solid",
    "symbols_match",
]
