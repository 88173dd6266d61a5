"""abelianaut benchmark: the CLI end to end, and its layers from outside.

    python3 bench/run.py --workload atlas|search|verify|all --seed N --seconds S --trace 0|1
    python3 bench/selfcheck.py     # the benchmark's own checks
    python3 bench/freeze.py        # rewrite bench/reference/ (seed code only)

Run from anywhere; the package is taken from ``src/`` next to this
directory, and nothing is built.  The workloads and why each one exists are
in ``workloads.py``.  ``--workload all`` alternates the three workloads'
cycles within one run, so that drift in machine speed falls on all of them
alike, and prefixes each metric in the JSON result with its workload.

``--trace 0`` runs the workload as a single client in a closed loop: each
cycle is three set-up probes and then one pass, every invocation a fresh
``python -m abelianaut`` process, until the next cycle would end after
``--seconds``.  Every output is checked against the reference frozen from
the seed code (``reference.py``).  It reports

    wall_s        one pass, tracing off: the sum over the pass's invocations
                  of each one's median over the passes
    setup_s       median of the set-up probes (the subcommand on its
                  smallest input: interpreter start, imports, argparse)
    peak_rss_mib  median over passes of the largest child's peak RSS,
                  read per child with os.wait4

The two times are scaled by the run's machine speed, measured with
``calibrate.py`` between the invocations, so that they read as seconds on
the nominal machine; the unscaled times are printed beside them and kept in
the result file.

``--trace 1`` imports the package and runs each pass in process through
``cli.main(argv)``, alternating an untraced pass and a traced one
(``tracing.py``), and reports the per-layer metrics of :data:`PER_LAYER`,
each the median over the traced passes.  Its outputs pass the same checks.

The error rate (failed invocations over attempted ones; a failure is an
unexpected exit code, a wrong output or a timeout) is printed with each
run and carried by ``attempted`` and ``failed`` in the last line, the JSON
result.  The run's metadata and samples go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate
import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

PROBES_PER_CYCLE = 3
CALIBRATION_SHARE = 0.12
INVOCATION_TIMEOUT_S = 60.0
IMPORT_PROBES = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# name -> unit; the layer each one belongs to is its first dotted part.
PER_LAYER = {
    "arith.factorize.calls": "count",
    "arith.factorize.busy_s": "s",
    "arith.is_prime.calls": "count",
    "arith.is_prime.busy_s": "s",
    "enumeration.partitions.calls": "count",
    "enumeration.partitions.busy_s": "s",
    "enumeration.groups_of_order.groups": "count",
    "enumeration.groups_of_order.self_s": "s",
    "core.PGroupShape.init.calls": "count",
    "core.PGroupShape.init.self_s": "s",
    "core.aut_order_p.calls": "count",
    "core.aut_order_p.busy_s": "s",
    "core.ratio.calls": "count",
    "core.ratio.self_s": "s",
    "core.GroupShape.str.busy_s": "s",
    "search.ratio_atlas.self_s": "s",
    "search.atlas.distinct_ratios": "count",
    "search.realize.self_s": "s",
    "search.orders_swept": "count",
    "search.screen.hits": "count",
    "search.denominator_prune.calls": "count",
    "search.denominator_prune.busy_s": "s",
    "search.denominator_prune.pruned_frac": "frac",
    "oracle.count_automorphisms.calls": "count",
    "oracle.count_automorphisms.busy_s": "s",
    "oracle.shapes_checked": "count",
    "oracle.shapes_skipped": "count",
    "oracle.candidate_tuples": "count",
    "oracle.tuples_per_s": "1/s",
    "cli.self_s": "s",
    "cli.rows_emitted": "count",
    "cli.bytes_out": "B",
    "setup.import_s": "s",
    "trace.overhead_frac": "frac",
}
COMPUTED = {"oracle.candidate_tuples": "computed by the benchmark from each shape checked"}


@dataclass
class Outcome:
    label: str
    seconds: float
    rss_mib: float
    error: str | None


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


class Spawner:
    """The process that starts every child (``spawner.py``), and its files.

    Children run one at a time; each one's stdout and stderr go to a file
    under ``bench/out/`` that the next child overwrites.
    """

    def __init__(self) -> None:
        self.stdout = OUT / "child.stdout"
        self.stderr = OUT / "child.stderr"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=INVOCATION_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: tuple[str, ...], timeout: float = INVOCATION_TIMEOUT_S
            ) -> tuple[int | None, bytes, float, float]:
        """Run ``argv``: (exit code or None on timeout, stdout, seconds, peak RSS MiB)."""
        request = {"argv": list(argv), "stdout": str(self.stdout),
                   "stderr": str(self.stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended")
        r = json.loads(reply)
        return r["code"], self.stdout.read_bytes(), r["seconds"], r["maxrss_kib"] / 1024

    def cli(self, argv: tuple[str, ...], timeout: float = INVOCATION_TIMEOUT_S
            ) -> tuple[int | None, bytes, float, float]:
        """Run ``python -m abelianaut *argv`` from ``src/``."""
        return self.run((sys.executable, "-m", "abelianaut", *argv), timeout)


def invoke(spawner: Spawner, inv: workloads.Invocation) -> Outcome:
    code, out, seconds, rss = spawner.cli(inv.argv)
    error = "timeout" if code is None else inv.check(code, out)
    if error is not None:
        stderr = spawner.stderr.read_bytes().strip().splitlines()
        error += f" (stderr: {stderr[-1].decode(errors='replace')})" if stderr else ""
    return Outcome(inv.label, seconds, rss, error)


class Calibration:
    """Machine speed over a run, from ``calibrate.py`` between invocations."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.started = time.perf_counter()

    def keep_up(self) -> None:
        """Calibrate until it has had ``CALIBRATION_SHARE`` of the run so far,
        so that its samples cover the run evenly."""
        elapsed = time.perf_counter() - self.started
        while sum(self.samples) < CALIBRATION_SHARE * elapsed:
            self.samples.append(calibrate.measure())

    def speed(self) -> float:
        return calibrate.speed(self.samples)


class Timed:
    """One workload in a ``--trace 0`` run: each cycle is probes, then a pass."""

    def __init__(self, spawner: Spawner, calibration: Calibration,
                 workload: workloads.Workload, seed: int) -> None:
        self.spawner, self.calibration = spawner, calibration
        self.workload, self.seed = workload, seed
        self.outcomes = [invoke(spawner, workload.setup)]  # fills the bytecode cache
        self.probes: list[float] = []
        self.per_label: dict[str, list[float]] = {inv.label: [] for inv in workload.passes}
        self.pass_s: list[float] = []
        self.pass_rss: list[float] = []

    def invoke(self, inv: workloads.Invocation) -> Outcome:
        o = invoke(self.spawner, inv)
        self.outcomes.append(o)
        self.calibration.keep_up()
        return o

    def cycle(self) -> None:
        for _ in range(PROBES_PER_CYCLE):
            self.probes.append(self.invoke(self.workload.setup).seconds)
        order = workloads.pass_order(self.workload, self.seed, len(self.pass_s))
        done = [self.invoke(inv) for inv in order]
        for o in done:
            self.per_label[o.label].append(o.seconds)
        self.pass_s.append(sum(o.seconds for o in done))
        self.pass_rss.append(max(o.rss_mib for o in done))

    def result(self) -> dict:
        speed = self.calibration.speed()
        wall_s = sum(statistics.median(v) for v in self.per_label.values())
        setup_s = statistics.median(self.probes)
        return {
            "metrics": {
                "wall_s": wall_s * speed,
                "setup_s": setup_s * speed,
                "peak_rss_mib": statistics.median(self.pass_rss),
            },
            "samples": {"wall_s": len(self.pass_s), "setup_s": len(self.probes),
                        "peak_rss_mib": len(self.pass_rss)},
            "notes": [f"speed {speed:.4f} from {len(self.calibration.samples)} calibrations; "
                      f"unscaled wall_s {wall_s:.4f} s, setup_s {setup_s:.4f} s"],
            "outcomes": self.outcomes,
            "detail": {"speed": speed, "unscaled_wall_s": wall_s, "unscaled_setup_s": setup_s,
                       "calibration_s": self.calibration.samples, "pass_s": self.pass_s,
                       "setup_probe_s": self.probes, "pass_peak_rss_mib": self.pass_rss,
                       "invocation_s": self.per_label},
        }


def import_package() -> dict:
    """The package's modules by name; only ``cli`` is required."""
    sys.path.insert(0, str(SRC))
    pkg = {"cli": importlib.import_module("abelianaut.cli")}
    if Path(pkg["cli"].__file__).resolve().parent != SRC / "abelianaut":
        raise ImportError(f"abelianaut imported from {pkg['cli'].__file__}, not {SRC}")
    for name in ("core", "enumeration", "search", "oracle"):
        try:
            pkg[name] = importlib.import_module(f"abelianaut.{name}")
        except ModuleNotFoundError:
            pass
    return pkg


def import_seconds(spawner: Spawner) -> float:
    """A fresh interpreter's ``import abelianaut.cli`` minus a bare start."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        for code, times in (("pass", bare), ("import abelianaut.cli", full)):
            status, _, seconds, _ = spawner.run((sys.executable, "-c", code))
            if status != 0:
                raise RuntimeError(f"python -c {code!r} exited with {status}")
            times.append(seconds)
    return statistics.median(full) - statistics.median(bare)


def in_process(main, argv: tuple[str, ...]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends a real process with status 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode()


def rows_of(argv: tuple[str, ...], out: bytes) -> int:
    lines = out.count(b"\n")
    return lines - 1 if "csv" in argv else lines


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """The traced pass's per-layer metrics (all but setup and overhead)."""
    totals = tracer.layer_totals()
    count = tracer.counters.__getitem__

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    prune_calls = calls("search.denominator_prune")
    oracle_busy = busy("oracle.count_automorphisms")
    return {
        "arith.factorize.calls": calls("arith.factorize"),
        "arith.factorize.busy_s": busy("arith.factorize"),
        "arith.is_prime.calls": calls("arith.is_prime"),
        "arith.is_prime.busy_s": busy("arith.is_prime"),
        "enumeration.partitions.calls": count("enumeration.partitions.calls"),
        "enumeration.partitions.busy_s": busy("enumeration.partitions"),
        "enumeration.groups_of_order.groups": count("enumeration.groups_of_order.groups"),
        "enumeration.groups_of_order.self_s": self_s("enumeration.groups_of_order"),
        "core.PGroupShape.init.calls": calls("core.PGroupShape.init"),
        "core.PGroupShape.init.self_s": self_s("core.PGroupShape.init"),
        "core.aut_order_p.calls": calls("core.aut_order_p"),
        "core.aut_order_p.busy_s": busy("core.aut_order_p"),
        "core.ratio.calls": calls("core.ratio"),
        "core.ratio.self_s": self_s("core.ratio"),
        "core.GroupShape.str.busy_s": busy("core.GroupShape.str"),
        "search.ratio_atlas.self_s": self_s("search.ratio_atlas"),
        "search.atlas.distinct_ratios": count("search.atlas.distinct_ratios"),
        "search.realize.self_s": self_s("search.realize"),
        "search.orders_swept": count("search.orders_swept"),
        "search.screen.hits": count("search.screen.hits"),
        "search.denominator_prune.calls": prune_calls,
        "search.denominator_prune.busy_s": busy("search.denominator_prune"),
        "search.denominator_prune.pruned_frac":
            count("search.denominator_prune.pruned") / prune_calls if prune_calls else 0.0,
        "oracle.count_automorphisms.calls": calls("oracle.count_automorphisms"),
        "oracle.count_automorphisms.busy_s": oracle_busy,
        "oracle.shapes_checked": count("oracle.shapes_checked"),
        "oracle.shapes_skipped": count("oracle.shapes_skipped"),
        "oracle.candidate_tuples": count("oracle.candidate_tuples"),
        "oracle.tuples_per_s":
            count("oracle.candidate_tuples") / oracle_busy if oracle_busy else 0.0,
        "cli.self_s": self_s("cli.main"),
        "cli.rows_emitted": count("cli.rows_emitted"),
        "cli.bytes_out": count("cli.bytes_out"),
    }


class Traced:
    """One workload in a ``--trace 1`` run: each cycle is an untraced pass in
    process, then a traced one."""

    def __init__(self, spawner: Spawner, pkg: dict, workload: workloads.Workload,
                 seed: int) -> None:
        self.pkg, self.workload, self.seed = pkg, workload, seed
        self.import_s = import_seconds(spawner)
        self.tracer = tracing.Tracer()
        self.traced_main = self.tracer.wrap("cli.main", pkg["cli"].main)
        self.outcomes: list[Outcome] = []
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []
        self.per_pass: list[dict[str, float]] = []

    def run_pass(self, main, traced: bool) -> float:
        elapsed = 0.0
        for inv in workloads.pass_order(self.workload, self.seed, len(self.traced_s)):
            start = time.perf_counter()
            code, out = in_process(main, inv.argv)
            seconds = time.perf_counter() - start
            elapsed += seconds
            self.outcomes.append(Outcome(inv.label, seconds, 0.0, inv.check(code, out)))
            if traced:
                self.tracer.count("cli.rows_emitted", rows_of(inv.argv, out))
                self.tracer.count("cli.bytes_out", len(out))
                summary = reference.parse_verify(out) if inv.argv[0] == "verify" else None
                if summary is not None:
                    self.tracer.count("oracle.shapes_checked", summary[0])
                    self.tracer.count("oracle.shapes_skipped", summary[1])
        return elapsed

    def cycle(self) -> None:
        self.plain_s.append(self.run_pass(self.pkg["cli"].main, traced=False))
        self.tracer.start_pass(len(self.traced_s))
        with tracing.installed(self.tracer, self.pkg):
            self.traced_s.append(self.run_pass(self.traced_main, traced=True))
        self.per_pass.append(layer_metrics(self.tracer))

    def result(self) -> dict:
        per_pass = self.per_pass
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["setup.import_s"] = self.import_s
        metrics["trace.overhead_frac"] = (statistics.median(self.traced_s)
                                          / statistics.median(self.plain_s) - 1)
        samples = {name: len(per_pass) for name in metrics}
        samples["setup.import_s"] = IMPORT_PROBES
        self.tracer.write(OUT / f"spans-{self.workload.name}")
        return {
            "metrics": metrics,
            "samples": samples,
            "outcomes": self.outcomes,
            "detail": {"untraced_pass_s": self.plain_s, "traced_pass_s": self.traced_s,
                       "spans_last_pass": len(self.tracer.name)},
        }


def run_cycles(loops: list, seconds: float) -> None:
    """Cycle through ``loops`` in turn until another round would end after
    ``seconds``; at least one round."""
    deadline = time.perf_counter() + seconds
    rounds: list[float] = []
    while True:
        start = time.perf_counter()
        for loop in loops:
            loop.cycle()
        now = time.perf_counter()
        rounds.append(now - start)
        if now + statistics.median(rounds) > deadline:
            return


def git_revision() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        **source_facts(),
    }


def source_facts() -> dict:
    """Lines of Python under ``src/``, tracked beside the benchmark figures,
    and a digest that names the code when there is no git revision."""
    files = sorted(SRC.rglob("*.py"))
    data = [p.read_bytes() for p in files]
    digest = hashlib.sha256()
    for path, content in zip(files, data):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + content + b"\0")
    return {"src_lines": sum(len(d.splitlines()) for d in data),
            "src_sha256": digest.hexdigest()}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"), required=True,
                        help="'all' alternates the workloads' cycles within one run")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(name: str, meta: dict, result: dict, units: dict[str, str]) -> None:
    """Print one workload's metrics and write them with the run's metadata."""
    outcomes = result["outcomes"]
    failures = [o for o in outcomes if o.error is not None]
    error_rate = len(failures) / len(outcomes)
    for o in failures[:10]:
        print(f"FAIL {name} {o.label}: {o.error}", file=sys.stderr)
    print(f"{name}: error_rate {error_rate} ({len(failures)} failed of "
          f"{len(outcomes)} invocations)")
    for metric, value in result["metrics"].items():
        note = f"  ({COMPUTED[metric]})" if metric in COMPUTED else ""
        print(f"  {metric:40s} {value:>16.6g} {units[metric]:6s} "
              f"n={result['samples'][metric]}{note}")
    for line in result.get("notes", ()):
        print(f"  {line}")
    record = {
        "meta": dict(meta, workload=name),
        "metrics": result["metrics"],
        "units": units,
        "samples": result["samples"],
        "error_rate": error_rate,
        "failures": [[o.label, o.error] for o in failures],
        "detail": result["detail"],
    }
    path = OUT / f"result-{name}-seed{meta['seed']}-trace{meta['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "abelianaut" / "__init__.py").is_file():
        print(f"error: no abelianaut package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ref = reference.load()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    chosen = [workloads.build(name, args.seed, ref) for name in names]
    meta = metadata(args)
    print("meta " + json.dumps(meta), flush=True)
    with Spawner() as spawner:
        if args.trace:
            pkg = import_package()
            loops = [Traced(spawner, pkg, w, args.seed) for w in chosen]
        else:
            calibration = Calibration()
            loops = [Timed(spawner, calibration, w, args.seed) for w in chosen]
        run_cycles(loops, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    results = {name: loop.result() for name, loop in zip(names, loops)}
    for name, result in results.items():
        report(name, meta, result, units)

    # One workload's metrics keep their names; 'all' prefixes each with its workload.
    def key(name, metric):
        return metric if len(names) == 1 else f"{name}.{metric}"

    outcomes = [o for r in results.values() for o in r["outcomes"]]
    failed = sum(o.error is not None for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {key(name, metric): {"value": value, "unit": units[metric]}
                    for name, r in results.items() for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
