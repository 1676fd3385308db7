"""Closed-loop benchmark of the hetprior command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline_paper --seed 1 --seconds 30 --trace 0

One caller in one process runs ``hetprior.cli.main`` in-process, one command
at a time, on CSV inputs generated from ``--seed``; BLAS threads are pinned
to 1.  The program is imported from ``src/`` of the checkout and nothing
else: without it the benchmark exits 2 before printing a result.

``--trace 0`` times repetitions untraced for ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json``.  During those repetitions the
speed probe of ``probe.py`` times a fixed chunk of work every 40 ms;
``wall_ref`` is a repetition's time in units of that chunk's time, which the
host's changes of speed move far less than seconds.  No reported time
includes the probe's own.  ``--trace 1`` spends half the time untraced and
half with every public function of the traced layers wrapped (see
``spans.py``), reports the per-layer metrics, and writes the spans to
``.perfbench/spans/<workload>-seed<seed>.json``.

Every run checks its outputs: each repetition must write byte-identical
files, and the first one's contents are checked per workload (see
``workloads.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit and direction, and the run's details.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, bayes_ma_latencies, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent
SETUP_TRIALS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Layers each workload must produce spans for in a traced run.
EXPECTED_LAYERS = {
    "pipeline_paper": {"data", "sampler", "summarize", "metaanalysis", "svg", "cli"},
    "compare_sparse": {"data", "sampler", "dic", "cli"},
    "analyze_batch": {"data", "summarize", "metaanalysis", "cli"},
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


@dataclass
class Op:
    command: str
    out_dir: str
    seconds: float
    rc: int | None
    output: str


class Harness:
    """Runs CLI commands in-process and keeps the current repetition's ops."""

    def __init__(self, work: Path, tracer, probe):
        self.inputs, self.out, self.warm = work / "in", work / "out", work / "warm"
        self.tracer = tracer
        self.probe = probe
        self.traced = False
        self.ops: list[Op] = []

    def call(self, command: str, argv: list[str]) -> None:
        cli = sys.modules["hetprior.cli"]
        out_dir = Path(argv[argv.index("--out") + 1]).name
        buf = io.StringIO()
        span = self.tracer.open(f"bench.{command}") if self.traced else None
        busy = self.probe.busy
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf), redirect_stderr(buf):
                rc = cli.main([command] + argv)
        except SystemExit as e:  # argparse rejects a command line this way
            rc = e.code
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = None
            buf.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - t0 - (self.probe.busy - busy)
            if span is not None:
                self.tracer.close(span)
        self.ops.append(Op(command, out_dir, seconds, rc, buf.getvalue()))

    def reset(self, directory: Path) -> None:
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)


@dataclass
class RepResult:
    wall: float
    cpu: float
    ops: list[Op]
    files: dict[str, tuple[int, str]]
    failed_ops: int
    traced: bool
    max_rss_mb: float
    chunk: float  # mean time of the probe's chunk during it; 0 if traced

    @property
    def output_bytes(self) -> int:
        return sum(size for size, _ in self.files.values())


def _file_digests(root: Path) -> dict[str, tuple[int, str]]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            out[str(p.relative_to(root))] = (len(data), hashlib.sha256(data).hexdigest())
    return out


class Runner:
    def __init__(self, workload, harness, tracer):
        self.wl = workload
        self.h = harness
        self.tracer = tracer
        self.reps: list[RepResult] = []
        self.problems: list[str] = []
        self.reference: dict[str, tuple[int, str]] | None = None
        self.checks_run = 0
        self.checks_failed = 0

    def _one_rep(self, traced: bool) -> RepResult:
        h, tracer = self.h, self.tracer
        h.reset(h.out)
        h.ops = []
        rep_id = len(self.reps)
        h.traced = traced
        tracer.rep = rep_id if traced else None
        crashed = None
        gc.collect()  # not the last repetition's garbage inside this one
        busy = h.probe.busy
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("bench.rep"):
                    self.wl.rep()
            else:
                with h.probe:
                    self.wl.rep()
        except Exception:  # e.g. a missing output the next command needs
            crashed = traceback.format_exc()
        wall = time.perf_counter() - t0 - (h.probe.busy - busy)
        cpu = time.process_time() - c0 - (h.probe.busy - busy)
        chunk = 0.0 if traced or not h.probe.samples else statistics.mean(h.probe.samples)
        h.traced = False
        tracer.rep = None

        # output checks, outside the timed region
        files = _file_digests(h.out)
        bad_dirs: dict[str, list[str]] = {}
        for op in h.ops:
            if op.rc != 0:
                bad_dirs.setdefault(op.out_dir, []).append(
                    f"{op.command} exited {op.rc}: {op.output.strip()[-400:]}")
        if self.reference is None:
            self.reference = files
            if not bad_dirs and crashed is None:
                try:
                    checked = self.wl.check()
                except (OSError, ValueError, KeyError, TypeError, StopIteration) as e:
                    checked = {"?": [f"output check could not read the outputs: {e!r}"]}
                for d, probs in checked.items():
                    bad_dirs.setdefault(d, []).extend(probs)
        else:
            for rel in set(files) | set(self.reference):
                if files.get(rel) != self.reference.get(rel):
                    bad_dirs.setdefault(rel.split(os.sep, 1)[0], []).append(
                        f"{rel} differs from the first repetition")
        if crashed is not None:
            self.problems.append(f"repetition {rep_id} stopped: {crashed.strip().splitlines()[-1]}")
        for d, probs in sorted(bad_dirs.items()):
            for p in probs:
                self.problems.append(f"repetition {rep_id}, {d}: {p}")
        failed = sum(1 for op in h.ops if op.out_dir in bad_dirs) + (crashed is not None)
        result = RepResult(wall, cpu, list(h.ops), files, failed, traced, max_rss_mb(), chunk)
        self.reps.append(result)
        return result

    def measure(self, budget: float, traced: bool) -> list[RepResult]:
        """Repetitions until the next one would overrun ``budget`` seconds."""
        done = []
        start = time.perf_counter()
        while True:
            done.append(self._one_rep(traced))
            typical = statistics.median(r.wall for r in done)
            if time.perf_counter() - start + typical > budget:
                return done


def max_rss_mb() -> float:
    """The process's peak resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- statistics ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, sample count) for the highest percentile in
    TAIL_PERCENTILES with at least ten samples beyond it; (0, 0, n) if none."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_PERCENTILES:
        r = math.ceil(p / 100.0 * n)
        if r >= 1 and n - r >= 10:
            return p, s[r - 1], n
    return 0.0, 0.0, n


def command_seconds(reps: list[RepResult], command: str) -> float:
    """Median over repetitions of the time spent in ``command`` per repetition."""
    per_rep = [sum(op.seconds for op in r.ops if op.command == command) for r in reps]
    return statistics.median(per_rep) if per_rep else 0.0


def slot_medians(per_rep: list[list[float]]) -> list[float]:
    """Median across repetitions of the i-th call of each repetition."""
    n = min((len(r) for r in per_rep), default=0)
    return [statistics.median(r[i] for r in per_rep) for i in range(n)]


def analyze_stats(reps: list[RepResult]) -> dict[str, float]:
    """Latency of `analyze` calls: per-dataset medians over repetitions, then
    their median and tail across datasets; throughput over all calls."""
    per_rep = [[op.seconds for op in r.ops if op.command == "analyze"] for r in reps]
    calls = [x for r in per_rep for x in r]
    if not calls:
        return {"per_s": 0.0, "p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0, "samples": 0}
    slots = slot_medians(per_rep)
    pct, value, n = tail(slots)
    return {
        "per_s": len(calls) / sum(calls),
        "p50_ms": 1e3 * statistics.median(slots),
        "tail_ms": 1e3 * value,
        "tail_pct": pct,
        "samples": n,
    }


# -- environment ---------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "backend": sys.modules["hetprior.sampler"].BACKEND,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# -- main ----------------------------------------------------------------------------


def import_program() -> float:
    """Import hetprior from the checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "hetprior" / "__init__.py").is_file():
        raise ImportError(f"no hetprior package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    importlib.import_module("hetprior.cli")
    seconds = time.perf_counter() - t0
    found = Path(sys.modules["hetprior"].__file__).resolve()
    if src.resolve() not in found.parents:
        raise ImportError(f"hetprior was imported from {found}, not from {src}")
    return seconds


def fresh_import_seconds() -> float:
    """Wall time of a new interpreter that imports hetprior.cli from src/,
    which is what each command a user runs pays before it starts."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import hetprior.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def declared_metrics() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m for m in doc["per_layer"]},
        "workloads": [w["name"] for w in doc["workloads"]],
    }


def run(args, declared) -> dict:
    import_s = import_program()
    # numpy: only after the thread pinning
    from probe import SpeedProbe
    from workloads import WORKLOADS

    tracer = Tracer()
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    h = Harness(work, tracer, SpeedProbe())
    wl = WORKLOADS[args.workload](h, args.seed)
    runner = Runner(wl, h, tracer)
    try:
        # set-up, several times: importing the program in a new interpreter,
        # input generation and a warm-up pass
        trials, imports = [], []
        for _ in range(SETUP_TRIALS):
            imports.append(fresh_import_seconds())
            t0 = time.perf_counter()
            h.reset(h.inputs)
            h.reset(h.warm)
            h.ops = []
            wl.generate()
            wl.warm_up()
            trials.append(imports[-1] + time.perf_counter() - t0)
            for op in h.ops:
                if op.rc != 0:
                    runner.problems.append(f"warm-up {op.command} exited {op.rc}: {op.output.strip()[-400:]}")
        setup_s = statistics.median(trials)
        setup_rss_mb = max_rss_mb()

        if args.trace == 0:
            runner.measure(args.seconds, traced=False)
        else:
            runner.measure(args.seconds / 2.0, traced=False)
            n_patched = tracer.install()
            try:
                runner.measure(args.seconds / 2.0, traced=True)
            finally:
                tracer.restore()
            left = tracer.check_restored()
            if left:
                runner.problems.append(f"wrappers left after restore: {left}")
        peak_rss_mb = max_rss_mb()
        if isinstance(wl, WORKLOADS["analyze_batch"]) and runner.reference is not None:
            guarded(runner, check_oracle, runner, wl)

        untraced = [r for r in runner.reps if not r.traced]
        ana = analyze_stats(untraced)
        details = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds,
            "repetitions": {"untraced": len(untraced), "traced": len(runner.reps) - len(untraced)},
            "walls_s": [r.wall for r in runner.reps],
            "probe_chunk_ms": [1e3 * r.chunk for r in runner.reps],
            "cpu_s": [r.cpu for r in runner.reps],
            "max_rss_mb": [setup_rss_mb] + [r.max_rss_mb for r in runner.reps],
            "import_s": import_s, "setup_imports_s": imports, "setup_trials_s": trials,
            "command_s": {c: command_seconds(untraced, c)
                          for c in sorted({op.command for r in untraced for op in r.ops})},
            "analyze": ana,
            "output_files": {k: v[0] for k, v in (runner.reference or {}).items()},
        }
        # seconds as measured, printed with --trace 0 and reported per layer
        extras = {
            "bench.wall_s": statistics.median(r.wall for r in untraced),
            "bench.probe_ms": 1e3 * statistics.median(r.chunk for r in untraced),
            "cli.fit_s": command_seconds(untraced, "fit"),
            "cli.approx_s": command_seconds(untraced, "approx"),
            "cli.analyze_per_s": ana["per_s"],
            "cli.analyze_p50_ms": ana["p50_ms"],
            "cli.analyze_tail_ms": ana["tail_ms"],
        }
        if args.trace == 0:
            ratios = [r.wall / r.chunk for r in untraced if r.chunk]
            metrics = {
                "setup_s": setup_s,
                "wall_ref": statistics.median(ratios) if ratios else 0.0,
                "peak_rss_mb": peak_rss_mb,
                "output_bytes": statistics.median(r.output_bytes for r in untraced),
            }
        else:
            metrics = per_layer_metrics(runner, tracer, extras, ana)
            details["patched_attributes"] = n_patched
            details["counts"] = {k: v for k, v in metrics.items()
                                 if declared["per_layer"][k]["unit"] in ("count", "bytes")}
            guarded(runner, check_spans, runner, tracer, args.workload)
            guarded(runner, check_round_trip, runner, tracer, h)
            write_spans(tracer, args)

        details["environment"] = environment()
        expected = declared["end_to_end" if args.trace == 0 else "per_layer"]
        if set(metrics) != set(expected):
            runner.problems.append(f"metrics {sorted(set(metrics) ^ set(expected))} do not match BENCHMARK.json")
        report(args, metrics, extras, declared, details, runner)
        attempted = sum(len(r.ops) for r in runner.reps) + runner.checks_run
        failed = sum(r.failed_ops for r in runner.reps) + runner.checks_failed
        return {
            "correct": not runner.problems,
            "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": expected[k]["unit"]}
                        for k in expected if k in metrics},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def per_layer_metrics(runner, tracer, extras, ana) -> dict[str, float]:
    """Medians over traced repetitions of each layer metric, plus the CLI's
    untraced command times and the tracing overhead."""
    traced = [i for i, r in enumerate(runner.reps) if r.traced]
    per_rep = [layer_metrics(tracer.rep_spans(i)) for i in traced]
    m = {k: statistics.median(x[k] for x in per_rep) for k in per_rep[0]}
    bm = slot_medians([bayes_ma_latencies(tracer.rep_spans(i)) for i in traced])
    pct, value, n = tail(bm)
    m["metaanalysis.bayes_ma_p50_s"] = statistics.median(bm) if bm else 0.0
    m["metaanalysis.bayes_ma_tail_s"] = value
    m["metaanalysis.bayes_ma_tail_pct"] = pct
    m["metaanalysis.bayes_ma_samples"] = n
    m["cli.bytes_written"] = statistics.median(runner.reps[i].output_bytes for i in traced)
    m.update(extras)
    m["cli.analyze_tail_pct"] = ana["tail_pct"]
    m["cli.analyze_samples"] = ana["samples"]
    traced_wall = statistics.median(runner.reps[i].wall for i in traced)
    untraced_wall = statistics.median(r.wall for r in runner.reps if not r.traced)
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans_per_rep"] = len(tracer.spans) / len(traced)
    return m


def guarded(runner, check, *args) -> None:
    """Run a whole-run check and count it as an operation; one that finds a
    problem, or cannot run, is a failed one."""
    before = len(runner.problems)
    try:
        check(*args)
    except Exception:  # boundary: record the failure and keep the result
        last = traceback.format_exc().strip().splitlines()[-1]
        runner.problems.append(f"{check.__name__} could not run: {last}")
    runner.checks_run += 1
    runner.checks_failed += len(runner.problems) > before


def check_oracle(runner, wl) -> None:
    for d, probs in sorted(wl.check_oracle().items()):
        runner.problems.append(f"{d}: " + "; ".join(probs))


def check_spans(runner, tracer, workload) -> None:
    """Every non-root span has a parent, the expected layers were seen, and
    the self times of each traced repetition add up to its wall time."""
    seen = {s.name.split(".", 1)[0] for s in tracer.spans}
    missing = EXPECTED_LAYERS[workload] - seen
    if missing:
        runner.problems.append(f"no spans for layers {sorted(missing)}")
    orphans = [s.name for s in tracer.spans if s.parent is None and s.name != "bench.rep"]
    if orphans:
        runner.problems.append(f"spans without a parent: {sorted(set(orphans))[:5]}")
    for i, r in enumerate(runner.reps):
        if not r.traced:
            continue
        total = sum(self_times(tracer.rep_spans(i)).values())
        if abs(total - r.wall) > 1e-4 + 1e-3 * r.wall:
            runner.problems.append(f"repetition {i}: span self times sum to {total:.6f} s, wall {r.wall:.6f} s")


def check_round_trip(runner, tracer, h) -> None:
    """samples_from_csv(samples_to_csv(s)) gives back every array exactly."""
    s = tracer.last_samples
    if s is None:
        return
    import numpy as np

    sampler = sys.modules["hetprior.sampler"]
    text = sampler.samples_to_csv(s)
    back = sampler.samples_from_csv(text, s.family)
    same = (back.hyper_names == s.hyper_names and back.analysis_ids == s.analysis_ids
            and all(np.array_equal(back.hyper[n], s.hyper[n]) for n in s.hyper_names)
            and all(np.array_equal(getattr(back, a), getattr(s, a))
                    for a in ("mu", "tau", "predictive", "deviance")))
    if not same:
        runner.problems.append("draw file round trip changed the draws")
    on_disk = h.out / "fit" / "samples.csv"
    if on_disk.exists() and on_disk.read_text() != text:
        runner.problems.append("samples.csv on disk differs from samples_to_csv of the fit's draws")


def write_spans(tracer, args) -> None:
    path = ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload, "seed": args.seed,
        "columns": ["id", "name", "start", "end", "parent", "rep", "error", "attrs"],
        "spans": [s.as_list() for s in tracer.spans],
    }
    path.write_text(json.dumps(doc))


def report(args, metrics, extras, declared, details, runner) -> None:
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {details['repetitions']}")
    rows = [(k, metrics[k], declared[kind][k]) for k in declared[kind] if k in metrics]
    if args.trace == 0:
        rows += [(k, v, declared["per_layer"][k]) for k, v in extras.items()]
    for name, value, d in rows:
        print(f"  {name:<40} {value:>16.6g} {d['unit']:<8} ({d['better']} is better)")
    env = details.get("environment", {})
    print(f"  environment: {env}")
    for p in runner.problems:
        print(f"problem: {p}", file=sys.stderr)
    details["problems"] = runner.problems
    print(json.dumps({"details": details}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Closed-loop benchmark of the hetprior CLI.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    declared = declared_metrics()
    if args.workload not in declared["workloads"]:
        p.error(f"unknown workload {args.workload!r}; choose from {declared['workloads']}")
    try:
        result = run(args, declared)
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
