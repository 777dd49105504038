"""rigicert benchmark.

    python3 bench/run.py --workload census|reduce-large|k33 --seed N --seconds S --trace 0|1

Run from the root of a checkout; rigicert is imported from its `src/`.  The
seed makes the workload's inputs (written under `bench/.work/`); every item
runs in this process through `rigicert.cli.main` (or `qs_solve`), one after
another (a closed loop with one client), and every output is checked.

--trace 0: items repeat in their seeded order until their summed time reaches
--seconds; prints the end-to-end metrics, with every time scaled to the
machine's reference speed (see `calibrate`).  --trace 1: runs a fixed prefix of
the items untraced, then again with spans around each layer's public
functions; prints the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed
(items with a wrong report, a traceback or an undocumented exception) and
metrics.  Refused items (ParseError or InputError, exit codes 1 and 2) are
counted apart from failures, and count as +inf latency.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import setup_probe
import workloads
from checks import ANSWERED, ERROR, REFUSED
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 11
#: End-to-end times are scaled to a machine on which `calibrate` takes this
#: long, about the usual speed of the 2-core machine the baseline was taken
#: on (it measured 0.66 to 1.36 times this speed).
CALIBRATION_REFERENCE_S = 0.0004
#: Item seconds between two calibration points (a warm-up pass of the loop,
#: then two timed ones).
CALIBRATION_EVERY_S = 0.05
IMPORT_REPEATS = 5
#: Stands in for +inf latency (a refused item) so the JSON stays valid.
INFINITE_MS = 1e9


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_cli():
    if not (SRC / "rigicert" / "cli.py").is_file():
        die(f"no rigicert sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import rigicert.cli

    if Path(rigicert.cli.__file__).resolve().parent != (SRC / "rigicert").resolve():
        die(f"imported rigicert from {rigicert.cli.__file__}, not from {SRC}")
    return rigicert.cli


def prepare(name: str, seed: int) -> tuple[workloads.Workload, Path]:
    """Make the seed's inputs; for the default seed they must match the
    committed copy under bench/inputs/."""
    catalog = json.loads((BENCH / "data" / "census_catalog.json").read_text())
    workload = workloads.build(name, seed, catalog)
    directory = WORK / f"seed-{seed}" / name
    directory.mkdir(parents=True, exist_ok=True)
    for file_name, text in workload.files.items():
        path = directory / file_name
        if not path.is_file() or path.read_text() != text:
            path.write_text(text)
    if seed == workloads.DEFAULT_SEED:
        committed = BENCH / "inputs" / f"seed-{seed}" / name
        names = sorted(p.name for p in committed.iterdir()) if committed.is_dir() else []
        if names != sorted(workload.files) or any(
            (committed / n).read_text() != workload.files[n] for n in names
        ):
            die(f"generated inputs differ from {committed}; regenerate them with bench/make_reference.py")
    return workload, directory


class Runner:
    """Executes items in-process and reports (status, output, seconds)."""

    def __init__(self, cli, directory: Path):
        import rigicert.algebra.embeddings
        import rigicert.errors
        import rigicert.graph

        self.cli = cli
        self.directory = directory
        # looked up per call, so that tracing's rebinding applies
        self.graph = rigicert.graph
        self.embeddings = rigicert.algebra.embeddings
        self.refusals = (rigicert.errors.ParseError, rigicert.errors.InputError)
        self._qs_inputs: dict[str, dict] = {}

    def run(self, item) -> tuple[str, str, float]:
        if item.argv[0] == "qs_solve":
            return self._qs_solve(item)
        argv = [str(self.directory / a) if a.endswith(".txt") else a for a in item.argv]
        out, err = io.StringIO(), io.StringIO()
        failure = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit):
                code, failure = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
        if code == 0:
            # reports echo the file argument; keep them independent of where inputs live
            return ANSWERED, out.getvalue().replace(f"{self.directory}/", ""), elapsed
        if code in (1, 2):
            return REFUSED, err.getvalue(), elapsed
        return ERROR, failure or f"exit code {code}", elapsed

    def _qs_solve(self, item) -> tuple[str, str, float]:
        planted = item.expect["planted"]
        if item.key not in self._qs_inputs:
            self._qs_inputs[item.key] = {
                tuple(int(v) for v in pair.split()): value for pair, value in planted["distances"].items()
            }
        distances = self._qs_inputs[item.key]
        path = self.directory / item.argv[1]
        start = time.perf_counter()
        try:
            graph = self.graph.parse_graph(path.read_text())
            embeddings = self.embeddings.qs_solve(graph, distances, tuple(planted["base"]))
        except self.refusals as exc:
            return REFUSED, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
        except Exception:
            return ERROR, traceback.format_exc(), time.perf_counter() - start
        elapsed = time.perf_counter() - start
        text = json.dumps([{str(v): list(p) for v, p in e.items()} for e in embeddings], sort_keys=True)
        return ANSWERED, text, elapsed


class Tally:
    def __init__(self):
        self.latencies_ms: list[float] = []
        self.busy_s = 0.0
        self.counts = {ANSWERED: 0, REFUSED: 0, ERROR: 0}
        self.problems: list[str] = []

    def add(self, status: str, elapsed: float, problem: str | None) -> None:
        if problem is not None:
            status = ERROR
            self.problems.append(problem)
        self.busy_s += elapsed
        self.counts[status] += 1
        self.latencies_ms.append(elapsed * 1000.0 if status == ANSWERED else math.inf)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)


def run_items(runner: Runner, checker: checks.Checker, workload, seconds: float, between=None) -> Tally:
    """Closed loop cycling over the workload's items until their own time
    adds up to `seconds`.  `between(busy_s)`, if given, runs before each
    item, off the item clock."""
    items = workload.items
    tally = Tally()
    i = 0
    while tally.busy_s < seconds:
        if between is not None:
            between(tally.busy_s)
        item = items[i % len(items)]
        status, output, elapsed = runner.run(item)
        tally.add(status, elapsed, checker.verify(item, status, output))
        i += 1
    return tally


def run_traced(runner: Runner, checker: checks.Checker, items, tracer: Tracer) -> tuple[Tally, Tally]:
    """Each item once untraced and once traced, back to back and in
    alternating order, so that drift in machine speed cancels out of the
    tracing overhead."""
    plain, traced = Tally(), Tally()
    for i, item in enumerate(items):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                tracer.begin_item(i)
                tracer.install()
            try:
                status, output, elapsed = runner.run(item)
            finally:
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else plain).add(status, elapsed, checker.verify(item, status, output))
    return plain, traced


def probe(directory: Path, name: str, items_file: Path | None = None) -> tuple[float, int | None]:
    """Seconds from starting a fresh interpreter to its first item being
    ready, and with `items_file` the peak RSS (KiB) of that interpreter once
    it has run those items (see setup_probe.py)."""
    command = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(directory), name]
    if items_file is not None:
        command.append(str(items_file))
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read().split()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        die("set-up probe failed")
    if items_file is None:
        return elapsed, None
    if len(rest) != 2 or rest[0] != "peak_rss_kb":
        die("memory probe failed")
    return elapsed, int(rest[1])


def memory_items(workload) -> list[list[str]]:
    """The first item of each kind (command, vertex count, vector kind): the
    requests whose peak memory the run reports.  qs_solve is a library call,
    not a CLI request, and is left out."""
    kinds: dict[tuple, list[str]] = {}
    for item in workload.items:
        kind = (item.argv[0], item.expect.get("n"), item.expect.get("kind"))
        if item.argv[0] != "qs_solve":
            kinds.setdefault(kind, list(item.argv))
    return list(kinds.values())


def measure_import() -> tuple[float, float]:
    """Median cumulative import time (ms) of rigicert.cli and of
    rigicert.algebra, from `python -X importtime` in fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import rigicert.cli"
    cli_ms, algebra_ms = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code], capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            die("import-time probe failed")
        top, algebra = 0, 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, module = int(parts[1]), parts[2]
            if module.strip().startswith("rigicert") and not module.startswith("  "):
                top += cumulative
            if module.strip() == "rigicert.algebra":
                algebra = cumulative
        cli_ms.append(top / 1000.0)
        algebra_ms.append(algebra / 1000.0)
    return statistics.median(cli_ms), statistics.median(algebra_ms)


def calibrate() -> float:
    """Seconds a fixed exact-arithmetic loop takes now.

    The host lends this machine's cores to others, and under their load the
    same work takes up to half as long again, for stretches of seconds to
    minutes.  Sampled between items all through a run, the loop's mean time
    measures how fast the machine ran the items, and the end-to-end times
    are scaled by it.  The loop sums `Fraction`s, a mix of interpreter work
    and integer arithmetic like rigicert's own, and calls nothing of
    rigicert, so a change to rigicert cannot move it.  Over 4-second windows
    its time tracked that of a fixed `k33` and a fixed `check` request with
    a correlation of 0.98."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i * i + 1, 3 * i + 7)
    return time.perf_counter() - start


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def finite(value: float) -> float:
    return value if math.isfinite(value) else INFINITE_MS


def end_to_end(runner, checker, workload, directory, seconds) -> tuple[Tally, dict]:
    items_file = directory.parent / f"memory-{workload.name}.json"
    items_file.write_text(json.dumps(memory_items(workload)))
    _, peak_kb = probe(directory, workload.name, items_file)
    setups: list[float] = []
    calibrations: list[float] = []
    next_calibration = 0.0

    def between(busy_s: float) -> None:
        # set-up and calibration samples spread over the run, so that they
        # see the same machine as the items do
        nonlocal next_calibration
        if len(setups) < SETUP_REPEATS and len(setups) * seconds <= busy_s * SETUP_REPEATS:
            setups.append(probe(directory, workload.name)[0])
        if busy_s >= next_calibration:
            # The pass right after an item runs on caches the item left
            # behind, and would time the workload's mix as well as the
            # machine; only the warm passes count.
            calibrate()
            calibrations.extend((calibrate(), calibrate()))
            next_calibration = busy_s + CALIBRATION_EVERY_S

    tally = run_items(runner, checker, workload, seconds, between)
    while len(setups) < SETUP_REPEATS:
        setups.append(probe(directory, workload.name)[0])
    # below 1 when the machine ran slower than the reference
    speed = CALIBRATION_REFERENCE_S / statistics.mean(calibrations)
    latencies = sorted(tally.latencies_ms)
    p50, p90 = statistics.median(latencies), percentile(latencies, 0.9)
    print(
        f"bench: machine speed {speed:.3f} of the reference ({len(calibrations)} samples); unscaled: "
        f"setup_s {statistics.median(setups):.4f}, items_per_s {tally.counts[ANSWERED] / tally.busy_s:.4f}, "
        f"item_ms_p50 {p50:.4f}, item_ms_p90 {p90:.4f}",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (statistics.median(setups) * speed, "s"),
        "items_per_s": (tally.counts[ANSWERED] / (tally.busy_s * speed), "1/s"),
        "item_ms_p50": (finite(p50 * speed), "ms"),
        "item_ms_p90": (finite(p90 * speed), "ms"),
        "answered_frac": (tally.counts[ANSWERED] / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return tally, metrics


def per_layer(runner, checker, workload, directory) -> tuple[Tally, dict]:
    tracer = Tracer()
    plain, traced = run_traced(runner, checker, workload.items[: workload.trace_items], tracer)
    tracer.write(directory.parent / f"spans-{workload.name}.tsv")
    metrics = {name: (value, "ms" if name.endswith("_ms") else "count") for name, value in tracer.layer_metrics().items()}
    cli_ms, algebra_ms = measure_import()
    metrics["cli.import_ms"] = (cli_ms, "ms")
    metrics["cli.import_ms.algebra"] = (algebra_ms, "ms")
    metrics["trace.overhead_ms"] = ((traced.busy_s - plain.busy_s) * 1000.0, "ms")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["error_frac"] = (traced.counts[ERROR] / traced.attempted, "ratio")
    metrics["refused_frac"] = (traced.counts[REFUSED] / traced.attempted, "ratio")
    traced.problems = plain.problems + traced.problems
    traced.counts[ERROR] += plain.counts[ERROR]
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = load_cli()
    references = json.loads((BENCH / "data" / "references.json").read_text())
    workload, directory = prepare(args.workload, args.seed)
    setup_probe.warm(args.workload)  # counted in setup_s, not in the first item
    runner = Runner(cli, directory)
    checker = checks.Checker(args.workload, args.seed, references)
    if args.trace:
        tally, metrics = per_layer(runner, checker, workload, directory)
    else:
        tally, metrics = end_to_end(runner, checker, workload, directory, args.seconds)
    for problem in tally.problems[:20]:
        print(f"bench: error: {problem}", file=sys.stderr)
    print(
        f"bench: {args.workload} seed {args.seed}: {tally.attempted} items, {tally.counts[ANSWERED]} answered, "
        f"{tally.counts[REFUSED]} refused, {tally.counts[ERROR]} errors, {tally.busy_s:.1f} s busy",
        file=sys.stderr,
    )
    result = {
        "correct": tally.counts[ERROR] == 0,
        "attempted": tally.attempted,
        "failed": tally.counts[ERROR],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
