"""The benchmark's vector oracle agrees with degmatch's brute-force matcher.

Run with: python3 -m pytest benchmark/test_mask_oracle.py
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checkout  # noqa: E402

checkout.use_source()
import mask_oracle  # noqa: E402
from degmatch import naive_match, parse_iupac  # noqa: E402

CODES = "".join(mask_oracle.IUPAC_MASKS)


def _iupac(rng, length, degenerate_share):
    return "".join(
        rng.choice(CODES[4:]) if rng.random() < degenerate_share else rng.choice("ACGT")
        for _ in range(length)
    )


@pytest.mark.parametrize("seed", range(200))
def test_agrees_with_naive_match(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    m = rng.randint(1, min(n + 2, 8))
    pattern = _iupac(rng, m, rng.choice([0.0, 0.2, 0.6]))
    text = _iupac(rng, n, rng.choice([0.0, 0.1, 0.5]))
    if rng.random() < 0.5:
        text = text.lower()
    expected = naive_match(parse_iupac(pattern), parse_iupac(text))
    assert mask_oracle.occurrences(pattern, text).tolist() == expected


def test_table_matches_degmatch_codes():
    for code in CODES:
        assert mask_oracle.IUPAC_MASKS[code] == parse_iupac(code).symbols[0].mask


def test_rejects_unknown_code():
    with pytest.raises(ValueError, match="'X' at position 3"):
        mask_oracle.masks("ACXG")


def test_degenerate_count():
    assert mask_oracle.degenerate_count("ACNNRGt") == 3
