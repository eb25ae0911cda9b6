import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from degmatch import (
    DNA_ALPHABET,
    IUPAC_CODES,
    Alphabet,
    DegenerateString,
    DegenerateSymbol,
    EmptyBracket,
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
from degmatch.matcher import precompute_membership

LETTERS = "abcdefgh"

# pickle.dumps(parse_bracket("a[bc]da[bd]", Alphabet("abcd"))) in the format
# that stores one DegenerateSymbol per position
ONE_SYMBOL_PER_POSITION_PICKLE = (
    b"\x80\x04\x95\xfa\x00\x00\x00\x00\x00\x00\x00\x8c\rdegmatch.core\x94\x8c\x10"
    b"DegenerateString\x94\x93\x94h\x00\x8c\x08Alphabet\x94\x93\x94)\x81\x94N}\x94("
    b"\x8c\x07symbols\x94(\x8c\x01a\x94\x8c\x01b\x94\x8c\x01c\x94\x8c\x01d\x94t\x94"
    b"\x8c\x06_ranks\x94}\x94(h\x08K\x00h\tK\x01h\nK\x02h\x0bK\x03uu\x86\x94b(h\x00"
    b"\x8c\x10DegenerateSymbol\x94\x93\x94)\x81\x94N}\x94(\x8c\x08alphabet\x94h\x05"
    b"\x8c\x04mask\x94K\x01u\x86\x94bh\x11)\x81\x94N}\x94(h\x14h\x05h\x15K\x06u\x86"
    b"\x94bh\x11)\x81\x94N}\x94(h\x14h\x05h\x15K\x08u\x86\x94bh\x12h\x11)\x81\x94N}"
    b"\x94(h\x14h\x05h\x15K\nu\x86\x94bt\x94\x86\x94R\x94."
)


def _refuse(*_args, **_kwargs):
    raise AssertionError("built through the per-position constructor")


@st.composite
def degenerate_strings(draw, max_len=24):
    sigma = draw(st.integers(1, len(LETTERS)))
    alphabet = Alphabet(LETTERS[:sigma])
    masks = draw(st.lists(st.integers(1, (1 << sigma) - 1), max_size=max_len))
    return DegenerateString(alphabet, [DegenerateSymbol(alphabet, m) for m in masks])


@st.composite
def symbol_pairs(draw):
    sigma = draw(st.integers(1, len(LETTERS)))
    alphabet = Alphabet(LETTERS[:sigma])
    top = (1 << sigma) - 1
    a = DegenerateSymbol(alphabet, draw(st.integers(1, top)))
    b = DegenerateSymbol(alphabet, draw(st.integers(1, top)))
    return a, b


class TestAlphabet:
    def test_ranks_follow_order(self):
        a = Alphabet("dacb")
        assert len(a) == 4
        assert a.rank("d") == 0 and a.rank("b") == 3
        assert a.char(1) == "a"
        assert "c" in a and "z" not in a

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet("aba")

    @pytest.mark.parametrize("bad", ["[", "]", ",", " ", "\t"])
    def test_reserved_characters_rejected(self, bad):
        with pytest.raises(ValueError):
            Alphabet("a" + bad)

    def test_hash_is_an_ordinary_symbol(self):
        # the index separator is a rank, so no character is kept for it
        a = Alphabet("a#")
        assert a.rank("#") == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Alphabet("")

    def test_fold(self):
        a = Alphabet("acgt")
        assert a.fold("A") == "a"
        assert a.fold("a") == "a"
        assert a.fold("x") is None


class TestDegenerateSymbol:
    def test_mask_must_be_nonempty_subset(self, abcd):
        with pytest.raises(ValueError):
            DegenerateSymbol(abcd, 0)
        with pytest.raises(ValueError):
            DegenerateSymbol(abcd, 1 << 4)

    def test_solid_and_cardinality(self, abcd):
        s = DegenerateSymbol.solid(abcd, "c")
        assert s.is_solid and len(s) == 1 and s.solid_rank() == 2
        t = DegenerateSymbol.of(abcd, "bd")
        assert not t.is_solid and len(t) == 2 and t.chars() == "bd"
        with pytest.raises(ValueError):
            t.solid_rank()

    def test_match_examples(self, abcd):
        bc = DegenerateSymbol.of(abcd, "bc")
        bd = DegenerateSymbol.of(abcd, "bd")
        a1 = DegenerateSymbol.solid(abcd, "a")
        a2 = DegenerateSymbol.solid(abcd, "a")
        b = DegenerateSymbol.solid(abcd, "b")
        assert symbols_match(bc, bd)
        assert symbols_match(a1, a2)
        assert not symbols_match(a1, b)

    def test_match_requires_same_alphabet(self, abcd):
        other = Alphabet("xyz")
        with pytest.raises(ValueError):
            symbols_match(DegenerateSymbol.solid(abcd, "a"), DegenerateSymbol.solid(other, "x"))

    @given(symbol_pairs())
    def test_match_symmetric(self, pair):
        a, b = pair
        assert symbols_match(a, b) == symbols_match(b, a)

    @given(symbol_pairs())
    def test_match_reflexive(self, pair):
        a, _ = pair
        assert symbols_match(a, a)

    def test_match_not_transitive_witness(self, abcd):
        # a matches [ab], [ab] matches b, but a does not match b
        a = DegenerateSymbol.solid(abcd, "a")
        ab = DegenerateSymbol.of(abcd, "ab")
        b = DegenerateSymbol.solid(abcd, "b")
        assert symbols_match(a, ab)
        assert symbols_match(ab, b)
        assert not symbols_match(a, b)


class TestParseBracket:
    def test_golden_pattern(self, abcd, golden_pattern):
        assert len(golden_pattern) == 5
        assert golden_pattern.non_solid_positions == (2, 5)
        assert golden_pattern.symbol_at(2) == DegenerateSymbol.of(abcd, "bc")
        assert golden_pattern.symbol_at(5) == DegenerateSymbol.of(abcd, "bd")

    def test_empty_input(self, abcd):
        s = parse_bracket("", abcd)
        assert len(s) == 0 and s.non_solid_positions == ()

    def test_unclosed_bracket(self, abcd):
        with pytest.raises(UnclosedBracket):
            parse_bracket("a[ab", abcd)

    def test_empty_bracket(self, abcd):
        with pytest.raises(EmptyBracket):
            parse_bracket("a[]b", abcd)

    def test_unknown_character_reports_position(self, abcd):
        with pytest.raises(UnknownCharacter) as exc:
            parse_bracket("ab!c", abcd)
        assert exc.value.position == 3

    def test_singleton_bracket_normalizes_to_solid(self, abcd):
        s = parse_bracket("[c]", abcd)
        assert len(s) == 1 and s.is_solid

    def test_duplicates_collapse_and_whitespace_skipped(self, abcd):
        s = parse_bracket("[a, b]x[bba]".replace("x", "c"), abcd)
        assert s.symbol_at(1) == DegenerateSymbol.of(abcd, "ab")
        assert s.symbol_at(3) == DegenerateSymbol.of(abcd, "ab")

    def test_case_folding(self):
        alpha = Alphabet("abcd")
        assert parse_bracket("A[BC]", alpha) == parse_bracket("a[bc]", alpha)


class TestParseIupac:
    def test_purine_code(self):
        s = parse_iupac("AR")
        assert len(s) == 2
        assert s.non_solid_positions == (2,)
        assert s.symbol_at(2).chars() == "AG"

    def test_any_nucleotide(self):
        s = parse_iupac("N")
        assert s.symbol_at(1).chars() == "ACGT"

    def test_unknown_code(self):
        with pytest.raises(UnknownCode) as exc:
            parse_iupac("AXB")
        assert exc.value.position == 2

    def test_lone_surrogate_is_an_unknown_code(self):
        with pytest.raises(UnknownCode) as exc:
            parse_iupac("A\udcff")
        assert exc.value.position == 2
        assert str(exc.value) == "unknown IUPAC code '\\udcff' at position 2"

    def test_case_insensitive(self):
        assert parse_iupac("acgtryswkmbdhvn") == parse_iupac("ACGTRYSWKMBDHVN")

    def test_one_rank_per_distinct_set(self):
        s = parse_iupac("NnRNr")
        assert s.sets == (0b0101, 0b1111)  # R = {A, G}, N = {A, C, G, T}
        assert s.ranks.tolist() == [5, 5, 4, 5, 4]
        assert s.non_solid_positions == (1, 2, 3, 4, 5)

    def test_all_codes_cardinalities(self):
        s = parse_iupac("ACGT RYSWKM BDHV N".replace(" ", ""))
        sizes = [len(sym) for sym in s]
        assert sizes == [1] * 4 + [2] * 6 + [3] * 4 + [4]


class TestSubstring:
    def test_golden_slice(self, golden_pattern):
        sub = golden_pattern.substring(2, 4)
        assert format_bracket(sub) == "[bc]da"
        assert sub.non_solid_positions == (1,)

    def test_identity(self, golden_pattern):
        assert golden_pattern.substring(1, len(golden_pattern)) == golden_pattern

    def test_empty_slice(self, golden_pattern):
        assert len(golden_pattern.substring(3, 2)) == 0

    def test_empty_slice_at_end(self, golden_pattern):
        # i = j+1 is the empty-string convention, valid even at the end
        assert len(golden_pattern.substring(6, 5)) == 0

    @pytest.mark.parametrize("i,j", [(0, 3), (2, 6), (4, 2), (7, 6)])
    def test_out_of_range(self, golden_pattern, i, j):
        with pytest.raises(OutOfRange):
            golden_pattern.substring(i, j)


class TestProperties:
    @given(degenerate_strings())
    def test_bracket_round_trip(self, s):
        parsed = parse_bracket(format_bracket(s), s.alphabet)
        assert parsed == s
        assert hash(parsed) == hash(s)

    def test_format_bracket_builds_each_rank_text_once(self, monkeypatch):
        wide = Alphabet(chr(0x100 + i) for i in range(300))
        rng = np.random.default_rng(17)
        pool = [int(b) << 150 | int(a) for a, b in rng.integers(1, 1 << 62, (20, 2))]
        masks = [1 << int(r) for r in rng.integers(0, 300, 1 << 14)]
        for p in rng.choice(len(masks), len(masks) // 4, replace=False).tolist():
            masks[p] = pool[p % len(pool)]
        s = DegenerateString(wide, [DegenerateSymbol(wide, mk) for mk in masks])
        expected = "".join(y.chars() if y.is_solid else f"[{y.chars()}]" for y in s.symbols)
        calls = []
        chars = DegenerateSymbol.chars
        monkeypatch.setattr(DegenerateSymbol, "chars", lambda y: calls.append(y) or chars(y))
        assert format_bracket(s) == expected
        assert len(calls) <= len(wide) + len(s.sets) and len(s.sets) == len(pool)

    @given(degenerate_strings())
    def test_non_solid_positions_iff_cardinality_two_or_more(self, s):
        expected = tuple(p for p in range(1, len(s) + 1) if len(s.symbol_at(p)) >= 2)
        assert s.non_solid_positions == expected

    @given(degenerate_strings())
    def test_coding_is_canonical(self, s):
        # one rank per distinct non-solid set, in increasing mask order, so
        # every constructor codes an equal symbol sequence alike
        alphabet, sigma = s.alphabet, len(s.alphabet)
        copies = [
            DegenerateString(alphabet, s.symbols),
            parse_bracket(format_bracket(s), alphabet),
            s.substring(1, len(s)),
            pickle.loads(pickle.dumps(s)),
        ]
        for c in copies:
            assert c.ranks.tolist() == s.ranks.tolist()
            assert c.sets == s.sets and hash(c) == hash(s)
        assert all(a < b for a, b in zip(s.sets, s.sets[1:]))
        assert set(s.sets) == {s.symbol_at(p).mask for p in s.non_solid_positions}
        assert len(s.sets) <= len(s.non_solid_positions)
        assert all(r < sigma + len(s.sets) for r in s.ranks.tolist())
        assert precompute_membership(s).shape[0] == sigma + len(s.sets)
        # a slice keeps only the sets it still holds
        tail = s.substring(2, len(s)) if s else s
        assert tail.sets == DegenerateString(alphabet, s.symbols[1:]).sets
        assert set(tail.sets) == {tail.symbol_at(p).mask for p in tail.non_solid_positions}

    @given(degenerate_strings())
    def test_conservativeness_threshold(self, s):
        k = len(s.non_solid_positions)
        assert s.is_conservative(k)
        assert not s.is_conservative(k - 1) or k == 0

    def test_parse_solid_reports_first_unknown_in_text_order(self, abcd):
        # '!' sorts before '?', but '?' comes first in the text
        with pytest.raises(UnknownCharacter) as exc:
            parse_solid("ab?c!", abcd)
        assert exc.value.position == 3
        assert str(exc.value) == "unknown character '?' at position 3"

    def test_parse_solid_wide_alphabet_unknown_position(self):
        wide = Alphabet(chr(0x100 + 2 * i) for i in range(70))
        # 'a' sorts before '~', but '~' comes first in the text
        raw = wide.char(69) + wide.char(0) + wide.char(3) + "~" + wide.char(1) + "a"
        with pytest.raises(UnknownCharacter) as exc:
            parse_solid(raw, wide)
        assert exc.value.position == 4
        assert parse_solid(raw[:3], wide).ranks.tolist() == [69, 0, 3]

    @given(st.lists(st.integers(0, 3), max_size=40))
    def test_parse_solid_ranks_do_not_depend_on_the_characters(self, ranks):
        # ASCII text takes a table, other text a sort; both give the ranks
        for alphabet in (Alphabet("abcd"), Alphabet("a\u00e9\U0001F600d")):
            text = "".join(alphabet.char(r) for r in ranks)
            assert parse_solid(text, alphabet).ranks.tolist() == ranks

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_copies_stay_read_only(self, golden_pattern, clone, monkeypatch):
        rng, n = np.random.default_rng(17), 1 << 16
        bases = np.where(rng.random(n) < 0.9, "N", rng.choice(list("ACGT"), n))
        mostly_n = parse_iupac("".join(bases))
        monkeypatch.setattr(DegenerateString, "__init__", _refuse)
        for s in (golden_pattern, mostly_n):
            c = clone(s)
            assert c == s and hash(c) == hash(s) and c.ranks.dtype == np.int32
            with pytest.raises(ValueError):
                c.ranks[0] = 3
        # one mask per rank and one byte per position, not one symbol each
        assert len(pickle.dumps(mostly_n)) <= len(mostly_n) + 4096

    def test_pickles_of_one_symbol_per_position_still_load(self, golden_pattern):
        s = pickle.loads(ONE_SYMBOL_PER_POSITION_PICKLE)
        assert s == golden_pattern and hash(s) == hash(golden_pattern)
        with pytest.raises(ValueError):
            s.ranks[0] = 3

    def test_parse_solid_matches_bracket_on_plain_strings(self, abcd):
        assert parse_solid("dacdab", abcd) == parse_bracket("dacdab", abcd)
        with pytest.raises(UnknownCharacter):
            parse_solid("da[cd]", abcd)

    def test_full_alphabet_set_is_ordinary(self, abcd):
        # a set equal to the whole alphabet is not special-cased
        s = parse_bracket("[abcd]", abcd)
        assert s.non_solid_positions == (1,)
        assert len(s.symbol_at(1)) == 4


# Every IUPAC code in both cases, then bracket metacharacters, blanks and
# control bytes, which some or all of the syntaxes reject.
POOL = [c for code in sorted(IUPAC_CODES) for c in (code, code.lower())]
POOL += ["x", "[", ",", " ", "\t", "\x00", "\x7f"]
PRINTABLE_90 = Alphabet([c for c in map(chr, range(0x21, 0x7F)) if c not in "[],"][:90])
SOLID_ALPHABETS = [DNA_ALPHABET, Alphabet("aA"), Alphabet("a"), PRINTABLE_90]


def _reference(text, alphabet, symbol_of, what, error):
    """The string of ``text`` built one symbol per character, or the
    (class, message, position) of its first invalid character."""
    symbols = []
    for p, c in enumerate(text, 1):
        symbol = symbol_of(c)
        if symbol is None:
            return error, f"{what} {c!r} at position {p}", p
        symbols.append(symbol)
    return DegenerateString(alphabet, symbols)


def _iupac_reference(text):
    def symbol_of(c):
        members = IUPAC_CODES.get(c.upper())
        return None if members is None else DegenerateSymbol.of(DNA_ALPHABET, members)

    return _reference(text, DNA_ALPHABET, symbol_of, "unknown IUPAC code", UnknownCode)


def _solid_reference(text, alphabet):
    def symbol_of(c):
        folded = alphabet.fold(c)
        return None if folded is None else DegenerateSymbol.solid(alphabet, folded)

    return _reference(text, alphabet, symbol_of, "unknown character", UnknownCharacter)


def _bracket_reference(text, alphabet):
    """Bracket text read one character at a time, as ``_reference`` gives it."""

    def unknown(p):
        return UnknownCharacter, f"unknown character {text[p]!r} at position {p + 1}", p + 1

    symbols, i = [], 0
    while i < len(text):
        start, members = i + 1, [text[i]]
        if text[i] == "[":
            members, i = [], i + 1
            while i < len(text) and text[i] != "]":
                if not (text[i].isspace() or text[i] == ","):
                    if alphabet.fold(text[i]) is None:
                        return unknown(i)
                    members.append(text[i])
                i += 1
            if i == len(text):
                return UnclosedBracket, f"bracket opened at position {start} is never closed", start
            if not members:
                return EmptyBracket, f"empty bracket group at position {start}", start
        elif alphabet.fold(text[i]) is None:
            return unknown(i)
        symbols.append(DegenerateSymbol.of(alphabet, [alphabet.fold(c) for c in members]))
        i += 1
    return DegenerateString(alphabet, symbols)


def _assert_parses_like(parse, text, expected):
    """``parse(text)`` equals ``expected``, a string with int32 read-only
    ranks, or raises the error class, message and position it names."""
    if isinstance(expected, DegenerateString):
        got = parse(text)
        assert got == expected
        assert got.ranks.dtype == np.int32 and not got.ranks.flags.writeable
    else:
        error, message, position = expected
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert type(exc.value) is error
        assert str(exc.value) == message and exc.value.position == position


class TestParserEquivalence:
    """The parsers equal a reference that reads one character at a time."""

    @given(st.text(st.sampled_from(POOL), max_size=40))
    @example("")
    @example("ACGTNRx")
    @example("acgtnr\x7f")
    def test_iupac_and_solid(self, text):
        _assert_parses_like(parse_iupac, text, _iupac_reference(text))
        for alphabet in SOLID_ALPHABETS:
            expected = _solid_reference(text, alphabet)
            _assert_parses_like(lambda t: parse_solid(t, alphabet), text, expected)

    @given(st.text(st.sampled_from(POOL + ["]"] * 3 + ["[", "["]), max_size=40))
    @example("")
    @example("A[CG]T]")
    @example("a,c")
    @example("[ag]c[t, a]x")
    @example("[a c]g[")
    @example("AC]G")
    @example("ACGTACGT[")
    @example("[AC]x[]")
    @example("[A!")
    def test_bracket(self, text):
        for alphabet in SOLID_ALPHABETS:
            expected = _bracket_reference(text, alphabet)
            _assert_parses_like(lambda t: parse_bracket(t, alphabet), text, expected)


@pytest.mark.parametrize("n_share, bound", [(0.0, 6), (0.02, 7)])
def test_parse_iupac_peak_per_character(n_share, bound):
    # the bytes, their translation and the int32 ranks, with one more
    # byte per character while the codes of the sets are compacted
    n = 1 << 20
    rng = np.random.default_rng(23)
    bases = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), n)
    bases[rng.random(n) < n_share] = ord("N")
    text = bases.tobytes().decode("ascii")
    assert bool(parse_iupac(text).sets) == (n_share > 0)
    tracemalloc.start()
    try:
        parse_iupac(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * n
