"""Spans around the program's layer boundaries, recorded from outside.

:class:`Tracer` wraps the public functions of the traced hetprior modules by
rebinding module attributes.  A function imported by name into another
module (``from .sampler import run_hierarchical`` in ``cli`` and ``dic``) is
rebound there too, so every call path is seen.  Spans stay in memory;
:meth:`Tracer.restore` puts every original function back and
:meth:`Tracer.check_restored` proves it did.

:func:`layer_metrics` turns the spans of one repetition into the per-layer
numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: modules whose public functions are wrapped, as the short layer names
LAYERS = ("data", "sampler", "dic", "summarize", "metaanalysis", "svg", "cli")

#: ``bayes_ma`` clips its effect grid to this many points
MU_GRID_CAP = 40001

_WRAPPED_MARK = "__perfbench_original__"


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    rep: int | None
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.rep,
                self.error, self.attrs]


# -- counters read from a call's arguments and result -----------------------------


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _run_hierarchical(span, args, kwargs, result, tracer):
    cfg = result.config
    iters = cfg.chains * (cfg.burn_in + (cfg.iterations - 1) * cfg.thin + 1)
    span.attrs["chain_iters"] = iters
    span.attrs["analysis_updates"] = iters * result.n_analyses
    tracer.last_samples = result


def _samples_to_csv(span, args, kwargs, result, tracer):
    s = _first_arg(args, kwargs, "s")
    span.attrs["bytes"] = len(result.encode())
    span.attrs["values"] = len(s.parameter_names()) * s.n_chains * s.n_kept
    span.attrs["kept_iters"] = s.n_chains * s.n_kept


def _samples_from_csv(span, args, kwargs, result, tracer):
    span.attrs["bytes"] = len(_first_arg(args, kwargs, "text").encode())


def _compare_models(span, args, kwargs, result, tracer):
    span.attrs["families"] = len(result)
    span.attrs["failed"] = sum(r.error is not None for r in result)


def _bayes_ma(span, args, kwargs, result, tracer):
    span.attrs["tau_grid_points"] = int(result.tau_density.grid.size)
    span.attrs["mu_grid_points"] = int(result.mu_density.grid.size)


HOOKS = {
    "sampler.run_hierarchical": _run_hierarchical,
    "sampler.samples_to_csv": _samples_to_csv,
    "sampler.samples_from_csv": _samples_from_csv,
    "dic.compare_models": _compare_models,
    "metaanalysis.bayes_ma": _bayes_ma,
}


class Tracer:
    """Records nested spans; optionally wraps the program's layer functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep: int | None = None
        self.last_samples = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans) + 1, name, time.perf_counter(), parent, self.rep)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            self.close(s)

    def _wrap(self, qualname: str, fn):
        tracer = self
        hook = HOOKS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(qualname)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer.close(span)
            if hook is not None:
                hook(span, args, kwargs, result, tracer)
            return result

        setattr(wrapper, _WRAPPED_MARK, fn)
        return wrapper

    def install(self) -> int:
        """Wrap every public function of the traced layers, in every hetprior
        module that binds it.  Returns the number of attributes rebound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hetprior.{layer}"]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in _program_modules():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
        return len(self._patched)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @staticmethod
    def check_restored() -> list[str]:
        """Names of program attributes that are still wrappers."""
        return [
            f"{mod.__name__}.{attr}"
            for mod in _program_modules()
            for attr, value in vars(mod).items()
            if hasattr(value, _WRAPPED_MARK)
        ]

    def rep_spans(self, rep: int) -> list[Span]:
        return [s for s in self.spans if s.rep == rep]


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hetprior" or name.startswith("hetprior."))]


# -- per-repetition analysis ---------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its children
    cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def _inclusive(spans: list[Span], names: set[str], by_id: dict[int, Span]) -> float:
    """Total duration of spans named in ``names`` that have no ancestor in
    ``names`` (so recursion or nesting is not counted twice)."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        nested = False
        while p is not None:
            anc = by_id[p]
            if anc.name in names:
                nested = True
                break
            p = anc.parent
        if not nested:
            total += s.duration
    return total


def _nearest_layer_ancestor(s: Span, by_id: dict[int, Span]) -> str | None:
    p = s.parent
    while p is not None:
        anc = by_id[p]
        if anc.name.split(".", 1)[0] in LAYERS:
            return anc.name
        p = anc.parent
    return None


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


CLI_COMMANDS = ("validate", "tau-estimates", "fit", "approx", "analyze", "compare")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts for the spans of one repetition."""
    by_id = {s.id: s for s in spans}
    self_t = self_times(spans)

    def incl(*names):
        return _inclusive(spans, set(names), by_id)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    m: dict[str, float] = {}
    m["data.parse_s"] = incl("data.parse_collection")
    m["data.validate_s"] = incl("data.validate_collection")

    run_s = incl("sampler.run_hierarchical")
    iters = attr_sum("sampler.run_hierarchical", "chain_iters")
    m["sampler.run_s"] = run_s
    m["sampler.chain_iters"] = iters
    m["sampler.iters_per_s"] = _rate(iters, run_s)
    m["sampler.analysis_updates_per_s"] = _rate(
        attr_sum("sampler.run_hierarchical", "analysis_updates"), run_s)

    write_s = incl("sampler.samples_to_csv")
    draw_bytes = attr_sum("sampler.samples_to_csv", "bytes")
    kept = attr_sum("sampler.samples_to_csv", "kept_iters")
    m["sampler.write_s"] = write_s
    m["sampler.draw_bytes"] = draw_bytes
    m["sampler.draw_values"] = attr_sum("sampler.samples_to_csv", "values")
    m["sampler.write_mb_per_s"] = _rate(draw_bytes / 1e6, write_s)
    m["sampler.draw_bytes_per_kept_iter"] = _rate(draw_bytes, kept)
    read_s = incl("sampler.samples_from_csv", "sampler.draws_from_csv")
    m["sampler.read_s"] = read_s
    m["sampler.read_mb_per_s"] = _rate(attr_sum("sampler.samples_from_csv", "bytes") / 1e6, read_s)
    m["sampler.summary_s"] = incl("sampler.summarize_samples")
    m["sampler.diagnostics_s"] = incl("sampler.diagnostics")

    m["dic.compute_s"] = incl("dic.compute_dic")
    m["dic.compare_self_s"] = sum(self_t[s.id] for s in spans if s.name == "dic.compare_models")
    m["dic.families_failed"] = attr_sum("dic.compare_models", "failed")

    m["summarize.point_s"] = incl("summarize.point_estimate_prior")
    m["summarize.mixture_s"] = incl("summarize.mixture_match_prior")
    m["summarize.ml_fit_s"] = incl("summarize.fit_predictive_ml")
    m["summarize.moments_s"] = incl("summarize.fit_predictive_moments")
    m["summarize.table_s"] = incl("summarize.approximation_table")
    fits = [s for s in spans
            if s.name in ("summarize.fit_predictive_ml", "summarize.fit_predictive_moments")]
    m["summarize.fits_attempted"] = len(fits)
    m["summarize.fits_failed"] = sum(s.error for s in fits)

    m["metaanalysis.tau_marginal_s"] = incl("metaanalysis.tau_marginal")
    m["metaanalysis.comparators_s"] = sum(
        s.duration for s in spans
        if s.name in ("metaanalysis.dl_estimate", "metaanalysis.ci_suite")
        and _nearest_layer_ancestor(s, by_id) == "metaanalysis.bayes_ma")
    m["metaanalysis.tau_estimates_s"] = incl("metaanalysis.tau_estimate_collection")
    m["metaanalysis.tau_grid_points"] = attr_sum("metaanalysis.bayes_ma", "tau_grid_points")
    m["metaanalysis.mu_grid_points"] = attr_sum("metaanalysis.bayes_ma", "mu_grid_points")
    m["metaanalysis.mu_grid_cap_hits"] = sum(
        s.attrs.get("mu_grid_points") == MU_GRID_CAP for s in spans
        if s.name == "metaanalysis.bayes_ma")

    m["svg.render_s"] = incl("svg.histogram_svg", "svg.forest_svg", "svg.density_svg")
    for cmd in CLI_COMMANDS:
        fn = "cli.cmd_" + cmd.replace("-", "_")
        m[f"cli.{cmd}.self_s"] = sum(self_t[s.id] for s in spans if s.name == fn)
    return m


def bayes_ma_latencies(spans: list[Span]) -> list[float]:
    """Durations of the ``bayes_ma`` calls of one repetition, in call order."""
    return [s.duration for s in spans if s.name == "metaanalysis.bayes_ma"]
