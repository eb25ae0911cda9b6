"""Benchmark of degmatch on one workload.

Usage:
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, closed loop: each operation starts after the previous one
ends. A round parses the inputs with the public parsers, runs one
``degmatch.find_occurrences`` call per text record, parses again (on
two of the workloads), and runs one ``python -m degmatch.cli`` child
process on the workload's FASTA file.
Rounds repeat until ``--seconds`` have passed. Times are scaled by the
reference kernel (``reference.py``). Every output is checked against
``mask_oracle`` and the property checks.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
a round runs a traced set-up and each operation untraced and traced, and
the per-layer metrics come from the traced copies. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checkout
import mask_oracle
from reference import NOMINAL_S, ReferenceKernel

EXIT_TIMEOUT_S = 120

#: Timed set-ups before a round's library and CLI operations. A parse
#: takes about 0.2 s on iupac-gaps and 0.9 s on the other two workloads.
#: Set-ups at two points of a round steady ``setup_s``; tandem-repeat-cli
#: parses once, so that its noisier match_s and cli_s keep a fifth round
#: (README.md, "Set-up samples").
SETUP_REPEATS = {"dna-random": (1, 1), "iupac-gaps": (2, 2), "tandem-repeat-cli": (1, 0)}

#: An operation's time is divided by the kernel's median over its own pass
#: and this many passes on either side (README.md, "Speed reference").
SCALE_WINDOW = 2


def _memory_kib():
    """Current and peak resident set of this process, in KiB."""
    fields = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(value.split()[0])
    return fields["VmRSS"], fields["VmHWM"]


def _parse_positions(stdout: str) -> dict:
    """CLI ``positions`` output (``record:position`` lines) by record."""
    found = {}
    for line in stdout.splitlines():
        rid, _, pos = line.rpartition(":")
        found.setdefault(rid, []).append(int(pos))
    return found


class Bench:
    def __init__(self, workload, seed: int):
        import degmatch

        self.degmatch = degmatch
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []  # tracebacks of failed operations
        self.wrong = []  # outputs that disagree with the oracle or a property
        self.reference = ReferenceKernel()
        self.reference_s = []  # one kernel time before each measured operation
        self.env = {**os.environ, "PYTHONPATH": str(checkout.SRC)}
        self.spawner = subprocess.Popen(
            [sys.executable, str(checkout.ROOT / "benchmark" / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=self.env, cwd=checkout.ROOT,
        )

        checkout.OUT.mkdir(exist_ok=True)
        stem = checkout.OUT / f"{workload.name}-{seed}"
        self.pattern_file = stem.with_suffix(".pat")
        self.fasta_file = stem.with_suffix(".fa")
        self.stdout_file = stem.with_suffix(".out")
        self.stderr_file = stem.with_suffix(".err")
        self.trace_file = stem.with_suffix(".trace.json")
        self.samples_file = stem.with_suffix(".samples.json")
        self.pattern_file.write_text(workload.pattern + "\n", encoding="ascii")
        with open(self.fasta_file, "w", encoding="ascii") as fh:
            for rid, seq in workload.records:
                fh.write(f">{rid}\n")
                for i in range(0, len(seq), 80):
                    fh.write(seq[i : i + 80] + "\n")

        self.expected = {
            rid: mask_oracle.occurrences(workload.pattern, seq)
            for rid, seq in workload.records
        }
        k_pattern = mask_oracle.degenerate_count(workload.pattern)
        m = len(workload.pattern)
        self.query_bound = {
            rid: (k_pattern + mask_oracle.degenerate_count(seq) + 1) * (len(seq) - m + 1)
            for rid, seq in workload.records
        }
        self.cli_argv = [
            "--pattern-file", str(self.pattern_file),
            "--pattern-syntax", "iupac",
            "--text-syntax", workload.text_syntax,
            "--text-file", str(self.fasta_file),
        ]

    def close(self):
        """Stop the spawner and wait for it."""
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    # -- operations -----------------------------------------------------

    def _measured(self, samples, fn, *args):
        """An operation whose time is reported, after one reference pass;
        appends (seconds, index of that pass) to ``samples``."""
        self.reference_s.append(self.reference())
        done = self._operation(fn, *args)
        if done is not None:
            samples.append((done[0], len(self.reference_s) - 1))
        return done

    def _scaled_median(self, samples):
        """Median of the samples, each scaled by the kernel passes around it."""
        ref = self.reference_s
        return _median([
            seconds * NOMINAL_S
            / statistics.median(ref[max(0, i - SCALE_WINDOW) : i + SCALE_WINDOW + 1])
            for seconds, i in samples
        ])

    def _operation(self, fn, *args):
        """Run one operation; a raised error counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None

    def parse(self):
        """Build pattern and texts with the public parsers; (seconds, inputs).

        The parsers are looked up on ``degmatch.core`` at call time, so the
        traced run's wrappers see these calls."""
        from degmatch import core

        t0 = time.perf_counter()
        pattern = core.parse_iupac(self.wl.pattern)
        if self.wl.text_syntax == "iupac":
            texts = [core.parse_iupac(seq) for _, seq in self.wl.records]
        else:
            texts = [core.parse_solid(seq, core.DNA_ALPHABET) for _, seq in self.wl.records]
        return time.perf_counter() - t0, (pattern, texts)

    def match(self, inputs, tracer=None):
        """One search of every record; (seconds, reports), checked."""
        pattern, texts = inputs
        if tracer is not None:
            from spans import report_counts
        reports = []
        t0 = time.perf_counter()
        for text in texts:
            if tracer is None:
                reports.append(self.degmatch.find_occurrences(pattern, text))
            else:
                with tracer.span("match") as record:
                    reports.append(self.degmatch.find_occurrences(pattern, text))
                    report_counts(record["attrs"], None, reports[-1])
        seconds = time.perf_counter() - t0
        for (rid, _), report in zip(self.wl.records, reports):
            self._check(rid, report.exact_occurrences)
            if report.lce_queries > self.query_bound[rid]:
                self.wrong.append(
                    f"record {rid}: {report.lce_queries} LCE queries exceed "
                    f"(k_total+1)(n-m+1) = {self.query_bound[rid]}"
                )
        return seconds, reports

    def cli(self, spans_file=None):
        """One CLI process; (seconds, peak RSS MiB, span times), checked."""
        if spans_file is None:
            argv = [sys.executable, "-m", "degmatch.cli", *self.cli_argv]
        else:
            argv = [sys.executable, str(checkout.ROOT / "benchmark" / "traced_cli.py"),
                    str(spans_file), *self.cli_argv]
        self.spawner.stdin.write(json.dumps({
            "argv": argv, "stdout": str(self.stdout_file), "stderr": str(self.stderr_file),
        }) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process has gone")
        done = json.loads(reply)
        if done["exit"] != 0:
            raise RuntimeError(
                f"CLI exited with {done['exit']}: {self.stderr_file.read_text()}"
            )
        stdout = self.stdout_file.read_text(encoding="ascii")
        found = _parse_positions(stdout)
        for rid, _ in self.wl.records:
            self._check(rid, found.pop(rid, ()))
        if found:
            self.wrong.append(f"CLI reported unknown records {sorted(found)}")
        child = None
        if spans_file is not None:
            with open(spans_file, encoding="utf-8") as fh:
                child = json.load(fh)
        start, seconds = done["start"], done["seconds"]
        return seconds, done["maxrss_kib"] / 1024.0, (start, start + seconds, child)

    def _check(self, rid, positions):
        got = np.asarray(positions, dtype=np.int64)
        if not np.array_equal(got, self.expected[rid]):
            self.wrong.append(
                f"record {rid}: {got.size} occurrences, the oracle finds "
                f"{self.expected[rid].size}"
            )
        missing = set(self.wl.planted.get(rid, ())) - set(got.tolist())
        if missing:
            self.wrong.append(f"record {rid}: planted occurrences missed: {sorted(missing)[:5]}")
        if self.wl.phase_set is not None and tuple(got.tolist()) != self.wl.phase_set[rid]:
            self.wrong.append(f"record {rid}: occurrences differ from the phase set")

    # -- runs -----------------------------------------------------------

    def set_up(self, samples, repeats=1):
        """``repeats`` timed parses, each from a freshly collected heap,
        appended to ``samples``; returns the last parse's inputs, so every
        round searches objects laid out anew."""
        for _ in range(repeats):
            done = None  # keep one parsed copy alive at a time
            gc.collect()
            done = self._measured(samples, self.parse)
            if done is None:
                raise RuntimeError("the inputs could not be parsed")
        return done[1]

    def warm_up(self, inputs):
        """One untimed search; its growth of the resident high-water mark
        over the resident set just before it, in MiB."""
        gc.collect()
        rss0, hwm0 = _memory_kib()
        self._operation(self.match, inputs)
        _, hwm1 = _memory_kib()
        if hwm1 <= hwm0:
            raise RuntimeError("the search did not raise the resident high-water mark; "
                               "an earlier peak hides its own")
        return (hwm1 - rss0) / 1024.0

    def run_untraced(self, seconds: float):
        setup, match_s, cli_s, cli_rss = [], [], [], []
        peak = self.warm_up(self.set_up(setup))
        before_match, before_cli = SETUP_REPEATS[self.wl.name]
        start = time.perf_counter()
        while True:
            inputs = self.set_up(setup, before_match)
            self._measured(match_s, self.match, inputs)
            inputs = None  # keep one parsed copy alive at a time
            if before_cli:
                self.set_up(setup, before_cli)
            done = self._measured(cli_s, self.cli)
            if done is not None:
                cli_rss.append(done[1])
            if time.perf_counter() - start >= seconds:
                break
        with open(self.samples_file, "w", encoding="utf-8") as fh:
            json.dump({"reference_s": self.reference_s, "setup_s": setup,
                       "match_peak_mb": [peak], "match_s": match_s,
                       "cli_s": cli_s, "cli_peak_rss_mb": cli_rss}, fh)
        print(f"# reference kernel: median {_median(self.reference_s):.4g} s over "
              f"{len(self.reference_s)} passes")
        for name, samples in (("setup_s", setup), ("match_s", match_s), ("cli_s", cli_s)):
            print(f"# {name}: {len(samples)} samples, unscaled median "
                  f"{_median([t for t, _ in samples]):.4g} s")
        return {
            "setup_s": (self._scaled_median(setup), "s"),
            "match_s": (self._scaled_median(match_s), "s"),
            "match_peak_mb": (peak, "MiB"),
            "cli_s": (self._scaled_median(cli_s), "s"),
            "cli_peak_rss_mb": (_median(cli_rss), "MiB"),
        }

    def run_traced(self, seconds: float, seed: int):
        done = self._operation(self.parse)
        if done is None:
            raise RuntimeError("the inputs could not be parsed")
        self._operation(self.match, done[1])  # warm-up
        done = None

        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(self._traced_round())
            if time.perf_counter() - start >= seconds:
                break

        with open(self.trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.wl.name, "seed": seed, "rounds": rounds}, fh)
        return {
            name: (_median([r["metrics"][name][0] for r in rounds]), unit)
            for name, (_, unit) in rounds[0]["metrics"].items()
        }

    def _traced_round(self):
        """A traced set-up, then each operation untraced and traced."""
        from degmatch import core
        import spans

        setup_tracer = spans.Tracer()
        setup_tracer.install(core)
        gc.collect()
        try:
            with setup_tracer.span("setup"):
                done = self._operation(self.parse)
        finally:
            setup_tracer.uninstall()
        if done is None:
            raise RuntimeError("the inputs could not be parsed")
        inputs = done[1]

        untraced = self._operation(self.match, inputs)
        tracer = spans.Tracer()
        tracer.install(core)
        try:
            traced = self._operation(self.match, inputs, tracer)
        finally:
            tracer.uninstall()
        cli_untraced = self._operation(self.cli)
        cli_traced = self._operation(self.cli, self.trace_file.with_suffix(".cli.json"))
        if None in (untraced, traced, cli_untraced, cli_traced):
            raise RuntimeError("an operation of the traced round failed")

        start, end, child = cli_traced[2]
        cli_spans = [{"id": 0, "parent": None, "name": "cli.process",
                      "start": start, "end": end, "attrs": {}}]
        for s in child:
            cli_spans.append({**s, "id": s["id"] + 1,
                              "parent": 1 + s["parent"] if s["parent"] is not None else 0})

        metrics = {"core.parse_s": (spans.total(setup_tracer.spans, "core.parse"), "s")}
        metrics.update(spans.match_metrics(tracer.spans))
        metrics.update({
            "cli.import_s": (spans.total(cli_spans, "cli.import"), "s"),
            "cli.load_s": (spans.total(cli_spans, "cli.load"), "s"),
            "cli.emit_s": (spans.total(cli_spans, "cli.emit"), "s"),
            "trace.match_overhead_s": (traced[0] - untraced[0], "s"),
            "trace.cli_overhead_s": (cli_traced[0] - cli_untraced[0], "s"),
            "trace.match_coverage": (spans.coverage(tracer.spans, "match"), "ratio"),
            "trace.cli_coverage": (spans.coverage(cli_spans, "cli.process"), "ratio"),
        })
        return {
            "setup_spans": setup_tracer.spans,
            "match_spans": tracer.spans,
            "cli_spans": cli_spans,
            "survivors": spans.survivors(tracer.spans),
            "metrics": metrics,
        }


def _median(samples):
    if not samples:
        raise RuntimeError("no operation of this kind succeeded")
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout.use_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload](args.seed), args.seed)
    try:
        if args.trace:
            metrics = bench.run_traced(args.seconds, args.seed)
        else:
            metrics = bench.run_untraced(args.seconds)
    finally:
        bench.close()

    for error in bench.errors + bench.wrong[:20]:
        sys.stderr.write(error.rstrip("\n") + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.6g}\t{unit}")
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
