#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``hilbert`` command line.

Run from the root of a checkout::

    python3 bench/run.py --workload sort-text-n3-m20 --seed 1 --seconds 20 --trace 0

A run generates its input file from ``--seed``, builds the expected
output with the specification codecs (``encode_arith``/``decode_arith``)
and then runs ``python -m hilbertorder`` from the checkout's ``src/`` as
a child process, one at a time (a closed loop with one client).  Every
output record of every call is compared with the expectation.

``--trace 0`` reports the end-to-end metrics of the child processes.
``--trace 1`` instead times the calls into each package module from
this file, in-process, and reports the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it give
provenance, the output check and every metric with its unit.
``bench/README.md`` says why each workload exists and which end-to-end
metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# An untraced run interleaves four kinds of child over --seconds, each
# with its share of the time and a minimum count: full CLI calls,
# one-point calls with the warm cache (setup_s) and with an empty one
# (setup_cold_s), and the host probe.  A traced run repeats whole rounds.
SHARES = {"full": (0.6, 3), "warm": (0.15, 5), "cold": (0.1, 7), "probe": (0.15, 9)}
MIN_ROUNDS = 1
# The host probe: a child that never imports the package, only starts
# the interpreter and runs a fixed pure-Python loop.  On a shared host
# the speed of everything changes by half or more for minutes at a
# time; the probe changes with it.  End-to-end timings are scaled
# by PROBE_REFERENCE_S / (the run's median probe time), so they read as
# seconds on a host where the probe takes PROBE_REFERENCE_S.
PROBE = "x = 0\nfor i in range(300_000):\n    x = (x * 31 + i) & 0xFFFF"
PROBE_REFERENCE_S = 0.1
# A child still running after this long is killed and fails its records.
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "setup_s": "s",
    "setup_cold_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
ORACLE_VARIANTS = ("arith", "bits", "arith-fast", "bits-fast")
PER_LAYER_UNITS = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "gene.get_s": "s",
    "gene.validate_s": "s",
    "gene.build_s": "s",
    "encode.busy_s": "s",
    "encode.us_per_point": "us",
    "decode.busy_s": "s",
    "decode.us_per_point": "us",
    "encode.passes_per_point": "count",
    "decode.passes_per_point": "count",
    "encode.useful_pass_ratio": "ratio",
    "decode.useful_pass_ratio": "ratio",
    "core_bits.index_build_us": "us",
    **{f"oracle.{v}.passes": "count" for v in ORACLE_VARIANTS},
    **{f"oracle.{v}.median_us": "us" for v in ORACLE_VARIANTS},
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """One CLI subcommand on one generated input.

    The input format follows the subcommand: ``sort`` reads a text
    point file, ``encode`` a binary point file and ``decode`` a file of
    ``digits:`` index tokens.  ``encoder``/``decoder`` name the codec
    variants the CLI runs on this workload; the traced run times those.
    """

    command: str
    n: int
    m: int
    records: int
    component_bits: int  # points are uniform below 2**component_bits
    encoder: str
    decoder: str


WORKLOADS = {
    "sort-text-n3-m20": Workload("sort", 3, 20, 30_000, 20, "encode_bits_fast", "decode_bits_fast"),
    "encode-bin-n4-m40-near": Workload("encode", 4, 40, 15_000, 10, "encode_arith", "decode_arith"),
    "decode-digits-n8-m32": Workload("decode", 8, 32, 10_000, 32, "encode_arith", "decode_arith"),
}


@dataclass
class Case:
    """Generated input of one run and the output the CLI must produce."""

    points: list[tuple[int, ...]]  # component order x1 .. xn
    indices: list[tuple[int, ...]]  # radix 2**n digits, most significant first
    input_bytes: bytes
    expected: list[str]
    one_input_bytes: bytes
    one_expected: list[str]

    @property
    def input_sha256(self) -> str:
        return hashlib.sha256(self.input_bytes).hexdigest()

    @property
    def output_sha256(self) -> str:
        return hashlib.sha256(_lines_bytes(self.expected)).hexdigest()


@dataclass
class Tally:
    """Output records and other checks made, and how many were missing or wrong."""

    attempted: int = 0
    failed: int = 0

    def add(self, expected: Sequence[str], actual: Sequence[str] | None) -> None:
        """Count one call's records; ``actual`` is None when the call failed."""
        self.attempted += len(expected)
        if actual is None:
            self.failed += len(expected)
            return
        wrong = sum(a != b for a, b in zip(expected, actual))
        self.failed += min(len(expected), wrong + abs(len(expected) - len(actual)))

    def check(self, ok: bool) -> None:
        """Count one check that is not an output record."""
        self.attempted += 1
        self.failed += not ok


def load_package():
    """Import ``hilbertorder`` from this checkout's ``src/``."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("hilbertorder")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported hilbertorder from {pkg.__file__}, not from {SRC}")
    return pkg


def make_case(pkg, w: Workload, seed: int) -> Case:
    """Seeded input plus its expected output from the specification codecs."""
    rng = random.Random(seed)
    params = pkg.CurveParams(w.n, w.m)
    table = pkg.gene_table(w.n)
    if w.command == "decode":
        indices = [tuple(rng.getrandbits(w.n) for _ in range(w.m)) for _ in range(w.records)]
        points = [
            pkg.decode_arith(pkg.HilbertIndex(w.n, d), params, table)[0] for d in indices
        ]
    else:
        points = [
            tuple(rng.getrandbits(w.component_bits) for _ in range(w.n))
            for _ in range(w.records)
        ]
        indices = [pkg.encode_arith(p, params, table)[0].digits for p in points]

    if w.command == "sort":
        order = sorted(range(w.records), key=indices.__getitem__)  # stable
        expected = [_point_line(points[i]) for i in order]
        write: Callable[[list], bytes] = lambda ps: _lines_bytes(_point_line(p) for p in ps)
        records = points
    elif w.command == "encode":
        expected = [_digits_token(d) for d in indices]
        write = lambda ps: _binary_points(ps, w.n)
        records = points
    else:
        expected = [_point_line(p) for p in points]
        write = lambda ds: _lines_bytes(map(_digits_token, ds))
        records = indices
    one_expected = [_point_line(points[0])] if w.command == "sort" else expected[:1]
    return Case(points, indices, write(records), expected, write(records[:1]), one_expected)


def _point_line(point: Sequence[int]) -> str:
    return " ".join(str(c) for c in reversed(point))


def _digits_token(digits: Sequence[int]) -> str:
    # The CLI prints this form for every index once n * m > 64, as on
    # the encode workload, and decode reads it at any size.
    return "digits:" + ".".join(map(str, digits))


def _lines_bytes(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def _binary_points(points: Sequence[Sequence[int]], n: int) -> bytes:
    # Magic, version 1, dimension (2 bytes), count (8 bytes), then
    # 64-bit little-endian components, x_n first.
    blob = bytearray(b"HPTS\x01" + n.to_bytes(2, "little") + len(points).to_bytes(8, "little"))
    for point in points:
        for c in reversed(point):
            blob += c.to_bytes(8, "little")
    return bytes(blob)


def cli_args(w: Workload, input_path: Path, work: Path) -> tuple[list[str], Path]:
    """Arguments of one CLI call and the file its output records land in."""
    args = [w.command, "--dim", str(w.n), "--level", str(w.m)]
    if w.command == "sort":
        return args + [str(input_path), str(work / "sorted.txt")], work / "sorted.txt"
    return args + ["--input", str(input_path)], work / "stdout.txt"


def run_child(args: list[str], cache: Path, work: Path) -> tuple[float, float, int]:
    """Run one child; return wall seconds, peak RSS in MB and exit code.

    Standard output goes to ``work/stdout.txt`` and standard error to
    ``work/stderr.txt``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), HILBERT_CACHE_DIR=str(cache))
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        print(f"child {args[:3]} exited {proc.returncode}: {' '.join(tail)}", file=sys.stderr)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def run_cli(args: list[str], result: Path, cache: Path, work: Path, expected: list[str], tally: Tally):
    """One CLI call with its output check; return wall seconds and peak RSS in MB."""
    result.unlink(missing_ok=True)
    wall, rss, code = run_child(["-m", "hilbertorder", *args], cache, work)
    tally.add(expected, result.read_text().splitlines() if code == 0 and result.exists() else None)
    return wall, rss


def interleave(tasks: dict[str, tuple[float, int, Callable[[], float]]], seconds: float) -> dict[str, list[float]]:
    """Run tasks for ``seconds``, each for its share of the time, spread over the window.

    ``tasks`` maps a name to (share, minimum count, action); an action
    runs once and returns the seconds it took.  The task furthest behind
    its share runs next.  Once that run would end after ``seconds``, only
    tasks short of their minimum count still run.  Returns each task's
    durations.
    """
    spent: dict[str, list[float]] = {name: [] for name in tasks}
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        name = max(tasks, key=lambda t: tasks[t][0] * elapsed - sum(spent[t]))
        if spent[name] and elapsed + statistics.median(spent[name]) > seconds:
            short = [t for t, (_, minimum, _) in tasks.items() if len(spent[t]) < minimum]
            if not short:
                return spent
            name = short[0]
        spent[name].append(tasks[name][2]())


def check_counters(pkg, w: Workload, case: Case, tally: Tally) -> dict[str, float]:
    """Single-point witness of every encoder variant through the package's own benchmark."""
    table = pkg.gene_table(w.n)
    report = pkg.run_counter_benchmark(case.points[0], [w.m], table)
    tally.check(report.counters_ok)
    if not report.counters_ok:
        print("counter check failed: " + "; ".join(pkg.benchmark_records(report)), file=sys.stderr)
    metrics = {}
    for row in report.rows:
        metrics[f"oracle.{row.algorithm}.passes"] = row.iterations
        metrics[f"oracle.{row.algorithm}.median_us"] = row.median_seconds * 1e6
    return metrics


def measure_end_to_end(w: Workload, case: Case, seconds: float, work: Path, tally: Tally):
    """Child-process timings with tracing off, scaled by the host probe.

    Full calls, one-point set-up pairs and probes interleave, so each
    samples the whole window.  Returns the metrics and the raw samples.
    """
    cache = work / "cache"
    full_input, one_input = work / "input", work / "one-input"
    full_input.write_bytes(case.input_bytes)
    one_input.write_bytes(case.one_input_bytes)
    one_args, one_result = cli_args(w, one_input, work)
    full_args, full_result = cli_args(w, full_input, work)
    run_cli(one_args, one_result, cache, work, case.one_expected, tally)  # fills the gene cache
    rss, colds = [], iter(range(1 << 30))

    def full() -> float:
        wall, peak = run_cli(full_args, full_result, cache, work, case.expected, tally)
        rss.append(peak)
        return wall

    actions = {
        "full": full,
        "warm": lambda: run_cli(one_args, one_result, cache, work, case.one_expected, tally)[0],
        "cold": lambda: run_cli(
            one_args, one_result, work / f"cold-{next(colds)}", work, case.one_expected, tally
        )[0],
        "probe": lambda: run_child(["-I", "-c", PROBE], cache, work)[0],
    }
    spent = interleave({name: (*SHARES[name], actions[name]) for name in SHARES}, seconds)
    median = {name: statistics.median(times) for name, times in spent.items()}
    scale = PROBE_REFERENCE_S / median["probe"]
    metrics = {
        "points_per_s": w.records / (median["full"] * scale),
        "setup_s": median["warm"] * scale,
        "setup_cold_s": median["cold"] * scale,
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, {**spent, "peak_rss_mb": rss}


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def measure_layers(pkg, w: Workload, case: Case, seconds: float, work: Path, tally: Tally):
    """Per-layer spans, in-process, repeated in rounds for ``seconds``.

    Returns the metrics and the raw samples they are medians of.
    """
    cli = importlib.import_module("hilbertorder.cli")
    cache = work / "cache"
    full_input = work / "input"
    full_input.write_bytes(case.input_bytes)
    args, result = cli_args(w, full_input, work)
    params = pkg.CurveParams(w.n, w.m)
    encoder, decoder = getattr(pkg, w.encoder), getattr(pkg, w.decoder)
    codec_layer = "decode" if w.command == "decode" else "encode"

    samples: dict[str, list[float]] = {}
    last: dict[str, list] = {}

    def one_round() -> float:
        round_start = time.perf_counter()
        span: dict[str, float] = {}
        span["cli.startup_s"] = run_child(["-c", "import hilbertorder.cli"], cache, work)[0]

        table, span["gene.get_s"] = _timed(pkg.cached_gene_table, w.n)
        report, span["gene.validate_s"] = _timed(pkg.validate_gene_table, table)
        _, span["gene.build_s"] = _timed(pkg.gene_table, w.n)
        tally.check(report.passed)

        encoded, span["encode.busy_s"] = _timed(lambda: [encoder(p, params, table) for p in case.points])
        tally.add(case.indices, [idx.digits for idx, _ in encoded])
        indices, build_s = _timed(lambda: [pkg.HilbertIndex(w.n, d) for d in case.indices])
        decoded, span["decode.busy_s"] = _timed(lambda: [decoder(i, params, table) for i in indices])
        tally.add(case.points, [p for p, _ in decoded])
        span["core_bits.index_build_us"] = build_s / w.records * 1e6

        result.unlink(missing_ok=True)
        with open(work / "stdout.txt", "w") as out, contextlib.redirect_stdout(out):
            code, span["cli.main_s"] = _timed(cli.main, args)
        tally.add(case.expected, result.read_text().splitlines() if code == 0 else None)
        span["cli.self_s"] = span["cli.main_s"] - span["gene.get_s"] - span[f"{codec_layer}.busy_s"]
        span["cli.wall_s"] = run_cli(args, result, cache, work, case.expected, tally)[0]

        for name, value in span.items():
            samples.setdefault(name, []).append(value)
        last.update(encoded=encoded, indices=indices, decoded=decoded)
        return time.perf_counter() - round_start

    with mock.patch.dict(os.environ, {"HILBERT_CACHE_DIR": str(cache)}):
        pkg.cached_gene_table(w.n)  # fills the gene cache
        rounds = interleave({"round": (1.0, MIN_ROUNDS, one_round)}, seconds)["round"]

    metrics = {name: statistics.median(values) for name, values in samples.items()}
    samples = {"round_s": rounds, **samples}
    encoded, indices, decoded = last["encoded"], last["indices"], last["decoded"]
    for layer, results, levels in (
        ("encode", encoded, [pkg.effective_level(p) for p in case.points]),
        ("decode", decoded, [pkg.index_effective_level(i) for i in indices]),
    ):
        passes = sum(counter.iterations for _, counter in results)
        metrics[f"{layer}.us_per_point"] = metrics[f"{layer}.busy_s"] / w.records * 1e6
        metrics[f"{layer}.passes_per_point"] = passes / w.records
        metrics[f"{layer}.useful_pass_ratio"] = sum(levels) / passes
    metrics["trace.overhead_ratio"] = (
        (metrics.pop("cli.main_s") + metrics["cli.startup_s"]) / metrics.pop("cli.wall_s") - 1
    )
    return metrics, samples


def git_revision() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hilbertorder").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(name: str, w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns provenance, the output check and the metrics."""
    pkg = load_package()
    case = make_case(pkg, w, seed)
    tally = Tally()
    layers = check_counters(pkg, w, case, tally)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORK) as tmp:
        if trace:
            values, samples = measure_layers(pkg, w, case, seconds, Path(tmp), tally)
            values.update(layers)
            units = PER_LAYER_UNITS
        else:
            values, samples = measure_end_to_end(w, case, seconds, Path(tmp), tally)
            values["ok_ratio"] = 1 - tally.failed / tally.attempted
            units = END_TO_END_UNITS
    provenance = {
        "workload": name,
        "command": w.command,
        "n": w.n,
        "m": w.m,
        "records": w.records,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "input_sha256": case.input_sha256,
        "output_sha256": case.output_sha256,
    }
    return {
        "provenance": provenance,
        "samples": samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: Sequence[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hilbertorder" / "__init__.py").is_file():
        print(f"no hilbertorder package under {SRC}", file=sys.stderr)
        return 2

    result = run(args.workload, workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    attempted, failed = result["attempted"], result["failed"]
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("samples " + json.dumps(result["samples"]))
    print(f"check records={attempted} failed={failed} fail_ratio={failed / attempted:.6g}")
    for key, metric in result["metrics"].items():
        print(f"metric {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    # Stopped by SIGTERM, the run still kills its child and removes its
    # scratch directory on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
