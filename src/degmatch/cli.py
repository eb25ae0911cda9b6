"""Command-line front end: ingest pattern and text, match, report.

Exit codes follow the grep convention: 0 when at least one occurrence was
found, 1 when none, 2 on input errors, 3 when --self-check disagrees with
the brute-force reference.
"""

import argparse
import json
import sys

from .core import (
    Alphabet,
    DegenerateString,
    DNA_ALPHABET,
    ParseError,
    parse_bracket,
    parse_iupac,
    parse_solid,
)
from .matcher import find_occurrences
from .oracle import naive_match


class FastaError(ValueError):
    pass


class EmptyFile(FastaError):
    pass


_BRACKET_METACHARS = frozenset("[],")


def _split_fasta(contents: str):
    """FASTA records as (id, [(line number, chunk)]) with whitespace
    stripped; ``contents`` starts, after blank space, with a '>' header."""
    records = []
    current = None
    for line_no, line in enumerate(contents.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(">"):
            header = stripped[1:].strip()
            rid = header.split()[0] if header else ""
            current = (rid, [])
            records.append(current)
        else:
            current[1].append((line_no, "".join(stripped.split())))
    return records


def _line_of(chunks, position: int | None) -> int:
    if chunks and position is not None:
        consumed = 0
        for line_no, chunk in chunks:
            consumed += len(chunk)
            if position <= consumed:
                return line_no
    return chunks[0][0] if chunks else 0


def _parse_record(rid, chunks, parse) -> DegenerateString:
    """Parse the concatenated ``chunks`` of one record; a failure in a named
    record is re-raised with the record id and source line attached."""
    raw = "".join(chunk for _, chunk in chunks)
    try:
        return parse(raw)
    except ParseError as err:
        if rid is None:
            raise
        line = _line_of(chunks, err.position)
        raise type(err)(f"record {rid!r}, line {line}: {err}", err.position) from err


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _collect_chars(raw: str, syntax: str) -> set:
    chars = set(raw)
    chars -= {c for c in chars if c.isspace()}
    if syntax == "bracket":
        chars -= _BRACKET_METACHARS
    return chars


def _infer_alphabet(pattern_raw: str, pattern_syntax: str, records, text_syntax: str) -> Alphabet:
    """Lowercase union of every character appearing in the inputs."""
    chars = _collect_chars(pattern_raw, pattern_syntax)
    for _, chunks in records:
        for _, chunk in chunks:
            chars |= _collect_chars(chunk, text_syntax)
    folded = sorted({c.lower() for c in chars})
    if not folded:
        raise ParseError("cannot infer an alphabet from empty input")
    return Alphabet(folded)


def _make_parser(syntax: str, alphabet: Alphabet):
    if syntax == "iupac":
        return parse_iupac
    if syntax == "bracket":
        return lambda raw: parse_bracket(raw, alphabet)
    return lambda raw: parse_solid(raw, alphabet)


def _load_text_records(args: argparse.Namespace, stdin) -> list[tuple[str | None, list]]:
    """Raw records of the text source named in ``args`` as
    (id, [(line number, chunk)]); one anonymous record with id None and no
    line number for a plain source. FASTA framing is detected by a leading
    '>'. Records are joined and parsed one at a time by ``_parse_record``."""
    if args.text is not None:
        contents = args.text
    else:
        contents = _read(args.text_file) if args.text_file is not None else stdin.read()
        if contents.lstrip().startswith(">"):
            return _split_fasta(contents)
    joined = "".join(contents.split())
    if not joined:
        raise EmptyFile("text input is empty")
    return [(None, [(None, joined)])]


def _emit(record_id, report, pattern_length, fmt, diagnostics, out) -> None:
    positions = report.exact_occurrences
    if fmt == "positions":
        if positions:
            prefix = f"{record_id}:" if record_id is not None else ""
            out.write(prefix + f"\n{prefix}".join(map(str, positions)) + "\n")
        return
    verdict_of = {}
    if diagnostics and report.verdicts is not None:
        verdict_of = dict(zip(report.approximate_occurrences, report.verdicts))
    lines = []
    for pos in positions:
        if fmt == "tsv":
            row = [record_id if record_id is not None else "-", str(pos)]
            if diagnostics:
                row.append(",".join(verdict_of.get(pos - 1, ())))
            lines.append("\t".join(row) + "\n")
        else:  # json-lines
            obj = {
                "record": record_id if record_id is not None else "-",
                "position": pos,
                "pattern_length": pattern_length,
            }
            if diagnostics:
                obj["verdicts"] = list(verdict_of.get(pos - 1, ()))
            lines.append(json.dumps(obj) + "\n")
    out.write("".join(lines))


def run(argv=None, out=None, err=None, stdin=None) -> int:
    """Parse ``argv`` (``sys.argv[1:]`` when None), execute one run and
    return its exit code. Input errors raise, among them a missing or
    doubled pattern source and both text sources; ``main`` maps them to 2."""
    args = _build_argparser().parse_args(argv)
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin

    if args.bench is not None:
        from . import bench  # only here: its imports cost every other run

        out.write(bench.run_scaling(bench.parse_grid(args.bench)).to_tsv() + "\n")
        return 0
    if (args.pattern is None) == (args.pattern_file is None):
        raise ValueError("exactly one of --pattern or --pattern-file is required")
    if args.text is not None and args.text_file is not None:
        raise ValueError("--text and --text-file are mutually exclusive")

    source = args.pattern if args.pattern is not None else _read(args.pattern_file)
    pattern_raw = "".join(source.split())  # whitespace is insignificant, as in the text
    records = _load_text_records(args, stdin)

    if args.pattern_syntax == "iupac" or args.text_syntax == "iupac":
        alphabet = DNA_ALPHABET
    else:
        alphabet = _infer_alphabet(pattern_raw, args.pattern_syntax, records, args.text_syntax)

    pattern = _make_parser(args.pattern_syntax, alphabet)(pattern_raw)
    parse_text = _make_parser(args.text_syntax, alphabet)

    found = False
    for rid, chunks in records:
        if not chunks:
            err.write(f"degmatch: warning: record {rid!r} has an empty sequence\n")
        text = _parse_record(rid, chunks, parse_text)
        report = find_occurrences(pattern, text, diagnostics=args.diagnostics)
        if args.self_check:
            expected = naive_match(pattern, text)
            if list(report.exact_occurrences) != expected:
                err.write(
                    f"degmatch: self-check failed for record {rid or '-'!r}: "
                    f"matcher={list(report.exact_occurrences)} oracle={expected}\n"
                )
                return 3
        _emit(rid, report, len(pattern), args.fmt, args.diagnostics, out)
        found = found or bool(report.exact_occurrences)
    return 0 if found else 1


def _build_argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="degmatch",
        description="Find exact occurrences of a degenerate pattern in a text.",
    )
    p.add_argument("-p", "--pattern", help="pattern as an inline string")
    p.add_argument("--pattern-file", help="read the pattern from a file")
    p.add_argument("--text", help="text as an inline string")
    p.add_argument("--text-file", help="read the text (plain or FASTA) from a file; stdin when absent")
    p.add_argument("--pattern-syntax", choices=["bracket", "iupac"], default="bracket")
    p.add_argument("--text-syntax", choices=["solid", "bracket", "iupac"], default="solid")
    p.add_argument("--format", dest="fmt", choices=["positions", "tsv", "json-lines"],
                   default="positions")
    p.add_argument("--diagnostics", action="store_true",
                   help="include match verdicts in tsv/json output: one per recorded "
                        "mismatch, in pattern order; on a solid text these are exactly "
                        "the pattern placeholders")
    p.add_argument("--self-check", action="store_true",
                   help="cross-check results against the brute-force matcher")
    p.add_argument("--bench", metavar="SPEC",
                   help="run the scaling benchmark, e.g. n=32768,65536,k=2,4,sigma=4,reps=5")
    return p


def main(argv=None) -> int:
    """``run`` with its input errors reported on stderr as exit code 2."""
    try:
        return run(argv)
    except (ParseError, FastaError, OSError, ValueError) as e:
        print(f"degmatch: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
