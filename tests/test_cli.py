import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degmatch
from degmatch.cli import EmptyFile, main, run

GOLDEN = ["-p", "a[bc]da[bd]", "--text", "dacdabdadcabdac"]


class TestExitCodes:
    def test_match_found(self, capsys):
        assert main(GOLDEN) == 0
        assert capsys.readouterr().out.splitlines() == ["2", "5"]

    def test_no_match(self, capsys):
        assert main(["-p", "zz", "--text", "dacdabdadcabdac"]) == 1
        assert capsys.readouterr().out == ""

    def test_input_error(self, capsys):
        assert main(["-p", "a[bc", "--text", "dacda"]) == 2
        assert "never closed" in capsys.readouterr().err

    def test_missing_pattern(self, capsys):
        assert main(["--text", "abc"]) == 2

    def test_both_pattern_sources(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("ab")
        assert main(["-p", "ab", "--pattern-file", str(f), "--text", "abab"]) == 2

    def test_self_check_agreement(self, capsys):
        assert main(GOLDEN + ["--self-check"]) == 0

    def test_self_check_disagreement(self, monkeypatch, capsys):
        import degmatch.cli as cli_mod

        monkeypatch.setattr(cli_mod, "naive_match", lambda p, t: [999])
        assert main(GOLDEN + ["--self-check"]) == 3
        assert "self-check failed" in capsys.readouterr().err


class TestInputSources:
    def test_pattern_file(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("a[bc]da[bd]\n")
        assert main(["--pattern-file", str(f), "--text", "dacdabdadcabdac"]) == 0
        assert capsys.readouterr().out.splitlines() == ["2", "5"]

    @pytest.mark.parametrize("wrapped,syntax,text", [
        ("ACGT\nNNAC\n", ["--pattern-syntax", "iupac", "--text-syntax", "iupac"],
         "TTACGTGGACAACGTAAACGT"),
        # broken inside a bracket group
        ("a[b\nc]da\n[bd]\n", [], "dacdabdadcabdac"),
    ], ids=["iupac", "bracket"])
    def test_wrapped_pattern_file(self, tmp_path, capsys, wrapped, syntax, text):
        f = tmp_path / "p.txt"
        f.write_text(wrapped)
        one_line = ["-p", "".join(wrapped.split()), "--text", text, "--format", "tsv"]
        assert main(one_line + syntax) == 0
        expected = capsys.readouterr()
        got = main(["--pattern-file", str(f)] + one_line[2:] + syntax)
        assert (got, capsys.readouterr()) == (0, expected)

    def test_text_file_plain(self, tmp_path, capsys):
        f = tmp_path / "t.txt"
        f.write_text("dacdab\ndadcabdac\n")  # newlines are insignificant
        assert main(["-p", "a[bc]da[bd]", "--text-file", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == ["2", "5"]

    def test_stdin(self):
        buf_out = io.StringIO()
        code = run(
            ["-p", "a[bc]da[bd]"],
            out=buf_out, err=io.StringIO(), stdin=io.StringIO("dacdabdadcabdac\n"),
        )
        assert code == 0
        assert buf_out.getvalue().splitlines() == ["2", "5"]

    def test_empty_stdin(self):
        # run() raises; main() converts this to exit code 2
        with pytest.raises(EmptyFile):
            run(["-p", "ab"], out=io.StringIO(), err=io.StringIO(), stdin=io.StringIO(""))

    def test_empty_text_is_input_error(self, capsys):
        assert main(["-p", "ab", "--text", ""]) == 2


class TestFasta:
    def test_spec_example_record(self, tmp_path, capsys):
        f = tmp_path / "t.fa"
        f.write_text(">seq1\nDACDA\nBDADCABDAC\n")
        assert main(["-p", "a[bc]da[bd]", "--text-file", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == ["seq1:2", "seq1:5"]
        # the record is the 15 symbols of both lines
        assert main(["-p", "dacdabdadcabdac", "--text-file", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == ["seq1:1"]
        assert main(["-p", "dacdabdadcabdaca", "--text-file", str(f)]) == 1

    def test_empty_record_warns(self, tmp_path, capsys):
        f = tmp_path / "t.fa"
        f.write_text(">a\n\n>b\nACGT\n")
        assert main(["-p", "acgt", "--text-file", str(f)]) == 0
        captured = capsys.readouterr()
        assert "record 'a' has an empty sequence" in captured.err
        assert captured.out.splitlines() == ["b:1"]
        assert main(["-p", "acgta", "--text-file", str(f)]) == 1

    def test_cli_parse_error_carries_record_and_line(self, tmp_path, capsys):
        f = tmp_path / "f.fa"
        f.write_text(">r1\n" + "ACGTACGTACGTACGT\n" * 2 + "ACGXACGT\n>r2\nACGT\n")
        assert main(["-p", "ACG", "--pattern-syntax", "iupac", "--text-syntax", "iupac",
                     "--text-file", str(f)]) == 2
        err = capsys.readouterr().err
        assert "record 'r1', line 4: unknown IUPAC code 'X'" in err

    def test_multi_record_matching_preserves_order(self, tmp_path, capsys):
        f = tmp_path / "t.fa"
        f.write_text(">seq2\nAAAA\n>seq1\nDACDABDADCABDAC\n")
        assert main(["-p", "a[bc]da[bd]", "--text-file", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == ["seq1:2", "seq1:5"]

    def test_empty_record_warning_on_stderr(self, tmp_path, capsys):
        f = tmp_path / "t.fa"
        f.write_text(">empty\n>seq1\nDACDABDADCABDAC\n")
        assert main(["-p", "a[bc]da[bd]", "--text-file", str(f)]) == 0
        assert "empty sequence" in capsys.readouterr().err


class TestFormats:
    def test_tsv(self, capsys):
        assert main(GOLDEN + ["--format", "tsv"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert rows == [["-", "2"], ["-", "5"]]

    def test_tsv_diagnostics(self, capsys):
        assert main(GOLDEN + ["--format", "tsv", "--diagnostics"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert rows == [["-", "2", "fake,fake"], ["-", "5", "fake,fake"]]

    def test_json_lines_round_trip(self, capsys):
        assert main(GOLDEN + ["--format", "json-lines", "--diagnostics"]) == 0
        objs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [o["position"] for o in objs] == [2, 5]
        assert all(o["pattern_length"] == 5 for o in objs)
        assert all(o["verdicts"] == ["fake", "fake"] for o in objs)

    def test_json_lines_without_diagnostics(self, capsys):
        assert main(GOLDEN + ["--format", "json-lines"]) == 0
        objs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all("verdicts" not in o for o in objs)
        assert all(o["record"] == "-" for o in objs)


class TestSyntaxes:
    def test_iupac_pattern(self, capsys):
        assert main(["-p", "AR", "--pattern-syntax", "iupac", "--text", "AAG"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1", "2"]

    def test_iupac_text(self, capsys):
        # N matches anything, R matches A and G
        assert main([
            "-p", "AG", "--pattern-syntax", "iupac",
            "--text", "NRT", "--text-syntax", "iupac",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == ["1"]

    def test_bracket_text(self, capsys):
        assert main([
            "-p", "ab", "--text", "a[bc]d", "--text-syntax", "bracket",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == ["1"]

    def test_case_folding_end_to_end(self, capsys):
        assert main(["-p", "a[bc]da[bd]", "--text", "DACDABDADCABDAC"]) == 0
        assert capsys.readouterr().out.splitlines() == ["2", "5"]


class TestBenchFlag:
    def test_tiny_grid(self, capsys):
        assert main(["--bench", "n=256,k=1,2,sigma=4,reps=5,m=16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n\tm\tk")
        assert len(lines) == 3

    def test_bad_spec(self, capsys):
        assert main(["--bench", "k=1"]) == 2


class TestEntryPoint:
    """``python -m degmatch.cli``, as a shell or a benchmark spawns it."""

    @staticmethod
    def spawn(*argv):
        path = [str(Path(degmatch.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        return subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120,
        )

    CLI = ["-m", "degmatch.cli"]
    IUPAC = ["-p", "ACGNTA", "--pattern-syntax", "iupac", "--text-syntax", "iupac"]

    def test_search_does_not_import_the_bench(self):
        # the scaling bench's own imports would cost every search process
        result = self.spawn("-c", (
            "import io, sys; from degmatch.cli import run; "
            "run(['-p', 'ab', '--text', 'abab'], out=io.StringIO()); "
            "print('degmatch.bench' in sys.modules)"
        ))
        assert result.stdout.split() == ["False"], result.stderr

    def test_fasta_json_lines_diagnostics(self, tmp_path):
        f = tmp_path / "t.fa"
        f.write_text(">r1 first\nTTACGATAGG\nACGCTAC\n>r2\nTTACGATAGNNNRCGCTAC\n")
        result = self.spawn(*self.CLI, *self.IUPAC, "--text-file", str(f),
                            "--format", "json-lines", "--diagnostics")
        assert result.returncode == 0, result.stderr
        objs = [json.loads(line) for line in result.stdout.splitlines()]
        assert [(o["record"], o["position"], o["verdicts"]) for o in objs] == [
            ("r1", 3, ["fake"]),
            ("r1", 11, ["fake"]),
            ("r2", 3, ["fake"]),
            ("r2", 13, ["fake", "fake"]),  # R against A, N against C
        ]
        assert all(o["pattern_length"] == 6 for o in objs)

    def test_both_text_sources(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("ACGTACGT\n")
        result = self.spawn(*self.CLI, *self.IUPAC, "--text", "ACGT", "--text-file", str(f))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "--text and --text-file are mutually exclusive" in result.stderr
