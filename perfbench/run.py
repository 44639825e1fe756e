"""Benchmark of posheaf: three workloads, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the source tree in src/ beside this
directory; it is not installed.  Inputs, reports and traces go to
perfbench/out/.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones, measured on child processes; with
--trace 1 they are the per-layer ones, from one in-process traced run.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fixed for the benchmark and for every child it spawns
ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# The batch is the same set of spaces whatever the seed (see
# inputs.random_batch), so its size sets only the length of an operation:
# 3.5 to 5 s, so that a run makes 4 or 5.
BATCH_SIZE = 300
# Startup probes come in blocks of this many, one block before the first
# operation and one after each; builds repeat for this long before the
# first block and after every block.  So both sample the whole run.
PROBES_PER_BLOCK = 4
SETUP_SECONDS = 0.5
SETUP_SECONDS_PER_BLOCK = 0.3
# The host's speed drifts by up to 1.5x, from one operation to the next
# and over minutes; every time the program takes drifts with it.  A fixed
# pure-Python loop, timed before every operation and every startup probe,
# measures the speed, and times are reported at the speed at which the
# loop takes CALIBRATION_REF_S (this host's usual speed).  See the README.
CALIBRATION_LOOP = 1_000_000
CALIBRATION_REF_S = 0.075
# A house simplification takes 20 to 28 s: without this, a 30 s run
# would often time it once.
MIN_OPS = 2


def spawn(args, stdout_path):
    """Run `python args...`; returns (wall seconds, peak RSS in MB, exit code).

    The wall time runs from the spawn to the child's exit.  The peak RSS
    is the child's own, from wait4.
    """
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class HouseWorkload:
    """A CLI call on Bing's house with the constant sheaf.

    Both the house and its double cone over the apexes are contractible,
    so every cohomology the CLI reports must be [1]; the Euler
    characteristic of the chain counts must agree with it.
    """

    def __init__(self, name, field, apexes, command):
        self.name = name
        self.field = field
        self.apexes = apexes
        self.command = command
        self.doc_path = OUT / f"{name}.json"
        self.report_path = OUT / f"{name}.report.json"
        self.result_path = OUT / f"{name}.out.json"
        self.stdout_path = self.report_path

    def setup(self, seed):
        self.doc = inputs.house_document(self.field, self.apexes)
        inputs.write_json(self.doc_path, self.doc)

    def expect(self):
        counts = oracles.chain_counts(oracles.document_poset(self.doc))
        self.euler = oracles.euler_characteristic(counts)

    def cli_args(self):
        args = [self.command, str(self.doc_path)]
        if self.command == "simplify":
            args += ["--strategy", "acyclic-down", "--out", str(self.result_path)]
        return args

    def child_args(self):
        return ["-m", "posheaf.cli", *self.cli_args()]

    def run_inprocess(self):
        import posheaf.cli

        with open(self.report_path, "w") as out, contextlib.redirect_stdout(out):
            return posheaf.cli.main(self.cli_args())

    def check(self, code):
        """(attempted, failed, correct) for the last operation."""
        report = read_json(self.report_path)
        if code != 0 or report is None:
            return 1, 1, True
        try:
            return 1, 0, self._report_ok(report)
        except (KeyError, TypeError):
            return 1, 0, False

    def _report_ok(self, report):
        n = len(self.doc["elements"])
        ok = report["betti"] == [1] and oracles.euler_characteristic(report["betti"]) == self.euler
        if self.command == "cohomology":
            return ok and report["sizes"]["elements"] == n
        removed = [s["removed"] for s in report["trace"]]
        out = read_json(self.result_path)
        return (
            ok and report["betti_after"] == [1] and report["certified"] is True
            and {"apexU", "apexV"} <= set(removed)
            and report["sizes"] == {"before": n, "after": n - len(removed)}
            and out is not None and len(out["elements"]) == n - len(removed)
            and set(out["elements"]) == set(self.doc["elements"]) - set(removed)
            and oracles.euler_characteristic(oracles.chain_counts(oracles.document_poset(out))) == 1
        )

    def final_check(self):
        """The simplified document must load again as valid input."""
        if self.command != "simplify":
            return True
        log = OUT / f"{self.name}.validate.txt"
        _, _, code = spawn(["-m", "posheaf.cli", "validate", str(self.result_path)], log)
        return code == 0 and log.read_text().strip() == "ok"


class BatchWorkload:
    """One child process runs a seeded batch through the public API.

    Every space's Betti numbers, before simplification, after
    acyclic-down and after core, must equal the prediction from the
    direct sum the generator built.
    """

    name = "random-batch"

    def __init__(self):
        self.report_path = OUT / "random-batch.results.json"
        self.stdout_path = OUT / "random-batch.stdout"

    def setup(self, seed):
        self.doc_path = OUT / f"random-batch-{seed}.json"
        self.batch = inputs.random_batch(seed, BATCH_SIZE)
        inputs.write_json(self.doc_path, [doc for doc, _ in self.batch])

    def expect(self):
        self.predicted = []
        for doc, summands in self.batch:
            p = inputs.BATCH_P if doc["field"] != "Q" else None
            self.predicted.append(oracles.predicted_betti(oracles.document_poset(doc), summands, p))

    def child_args(self):
        return [str(HERE / "batch.py"), str(self.doc_path), str(self.report_path)]

    def run_inprocess(self):
        import batch

        batch.run_batch(self.doc_path, self.report_path)
        return 0

    def check(self, code):
        results = read_json(self.report_path)
        n = len(self.predicted)
        if code != 0 or results is None or len(results) != n:
            return n, n, True
        failed = sum("error" in r for r in results)
        ok = all("error" in r or r["betti"] == [want] * 3
                 for r, want in zip(results, self.predicted))
        return n, failed, ok

    def final_check(self):
        return True


WORKLOADS = {
    w.name: w for w in (
        HouseWorkload("house-simplify-gf7", "GF:7", True, "simplify"),
        HouseWorkload("house-cohomology-q", "Q", False, "cohomology"),
        BatchWorkload(),
    )
}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, attempted, failed, correct):
        self.attempted += attempted
        self.failed += failed
        self.correct = self.correct and correct

    def line(self, metrics):
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed, "metrics": metrics,
        })


def timed_setup(workload, seed, seconds) -> list[float]:
    """Times of builds repeated for at least `seconds`, at least one.

    Every build writes the same files; the last one's stay.
    """
    times = []
    while not times or sum(times) < seconds:
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return times


def repeat_for(seconds, op):
    """Run whole operations for about `seconds`, and at least MIN_OPS.

    Once MIN_OPS have run, another starts only while the median so far
    still fits in the time left.
    """
    results = []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append((op(), time.perf_counter() - t))
        elapsed = time.perf_counter() - t0
        median = statistics.median(d for _, d in results)
        if len(results) >= MIN_OPS and elapsed + median > seconds:
            return [r for r, _ in results]


def probe(tally):
    """One CLI call that does no work; returns its wall time."""
    log = OUT / "version.txt"
    wall, _, code = spawn(["-m", "posheaf.cli", "--version"], log)
    ok = code == 0 and log.read_text().startswith("posheaf ")
    tally.add(1, 0 if ok else 1, True)
    return wall


def calibrate():
    """Seconds for a fixed loop of integer arithmetic in this process.

    The loop never changes and does not touch posheaf, so its time
    follows only the host's speed.
    """
    t0 = time.perf_counter()
    total = 0
    for k in range(CALIBRATION_LOOP):
        total += k * k
    return time.perf_counter() - t0


def run_plain(workload, seed, seconds, tally):
    setup = timed_setup(workload, seed, SETUP_SECONDS)
    workload.expect()
    startup = []
    calibration = []

    def sample():
        for _ in range(PROBES_PER_BLOCK):
            calibration.append(calibrate())
            startup.append(probe(tally))
        setup.extend(timed_setup(workload, seed, SETUP_SECONDS_PER_BLOCK))

    def op():
        calibration.append(calibrate())
        wall, rss, code = spawn(workload.child_args(), workload.stdout_path)
        tally.add(*workload.check(code))
        sample()
        return wall, rss

    sample()
    ops = repeat_for(seconds, op)
    tally.add(0, 0, workload.final_check())
    level = statistics.median(calibration)
    print(f"operations (s, unscaled): {' '.join(f'{w:.3f}' for w, _ in ops)}; "
          f"calibration loop {level:.4f} s", file=sys.stderr)
    # Every time is a median of samples spread over the whole run, scaled
    # by the median calibration of the run.
    scale = CALIBRATION_REF_S / level
    return {
        "wall_s": {"value": statistics.median(w for w, _ in ops) * scale, "unit": "s"},
        "startup_s": {"value": statistics.median(startup) * scale, "unit": "s"},
        "setup_s": {"value": statistics.median(setup) * scale, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r for _, r in ops), "unit": "MB"},
    }


def run_traced(workload, seed, seconds, tally):
    import spans

    workload.setup(seed)
    workload.expect()
    t0 = time.perf_counter()
    import posheaf.cli  # noqa: F401  (first import in this process)

    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    per_op = []

    def op():
        before = dict(tracer.counts)
        first = len(tracer.name)
        with tracer.span(spans.OP) as root:
            code = workload.run_inprocess()
        tally.add(*workload.check(code))
        values = tracer.times(first, len(tracer.name))
        for key in tracer.present:
            if spans.METRICS[key] == "count":
                values[key] = tracer.counts.get(key, 0) - before.get(key, 0)
        per_op.append(values)
        return tracer.end[root] - tracer.start[root]

    try:
        walls = repeat_for(seconds, op)
    finally:
        tracer.uninstall()
    tally.add(0, 0, workload.final_check())
    for key in tracer.present:
        if spans.METRICS[key] == "count" and len({v[key] for v in per_op}) > 1:
            print(f"warning: {key} differs between operations", file=sys.stderr)
    metrics = {}
    for key, unit in spans.METRICS.items():
        if key == spans.IMPORT_METRIC:
            metrics[key] = {"value": import_s, "unit": unit}
        elif key in tracer.present:
            metrics[key] = {"value": statistics.median(v[key] for v in per_op), "unit": unit}
    print(f"traced wall_s {min(walls):.4f} (fastest of {len(walls)})", file=sys.stderr)
    tracer.dump(OUT / f"trace-{workload.name}-{seed}.json",
                {"workload": workload.name, "seed": seed, "op_wall_s": walls})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "posheaf" / "cli.py").is_file():
        print(f"no posheaf sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    # warm-up: compiles the bytecode cache, and proves the CLI starts
    probe(tally)
    if tally.failed:
        print("posheaf --version failed; nothing to measure", file=sys.stderr)
        return 2
    # a termination ends the run like an interrupt, so spawn() reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_plain
    metrics = run(workload, args.seed, args.seconds, tally)
    print(tally.line(metrics))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        # fix hashing and threads for this process too, then start over
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, **ENV})
    sys.exit(main())
