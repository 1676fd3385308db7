"""Command-line surface: validate corpora, fit the hierarchical model,
compare heterogeneity families, condense priors, run a single
meta-analysis, and tabulate frequentist heterogeneity estimates.

Every run writes a manifest (inputs with content hashes, full
configuration, seed, tool version) next to its outputs so any artifact
can be reproduced bit for bit.  Exit codes: 0 success, 2 input/format
problems, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .data import parse_collection, subset_recent, validate_collection
from .dic import compare_models, comparison_to_dict, format_comparison_table
from .dist import InfeasibleError, Normal, format_distribution, parse_distribution
from .metaanalysis import (
    GridError,
    bayes_ma,
    forest_rows,
    single_meta,
    tau_estimate_collection,
)
from .sampler import (
    BACKEND,
    HET_FAMILIES,
    McmcConfig,
    ModelSpec,
    run_hierarchical,
    samples_from_npy,
    samples_to_npy,
    summary_dict,
)
from .summarize import (
    FIT_FAMILIES,
    FitError,
    approximation_table,
    fit_predictive_ml,
    fit_predictive_moments,
    format_approximation_table,
    mixture_match_prior,
    point_estimate_prior,
    prior_to_dict,
)
from .svg import density_svg, forest_svg, histogram_svg

SCHEMA_VERSION = 7


# -- plumbing ---------------------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {obj!r}")


def _dump_json(doc: dict) -> str:
    """``doc`` as indented JSON with sorted keys, numpy values as plain
    numbers and lists.  A NaN or infinity raises ``ValueError``: JSON has
    no such values."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=_jsonify) + "\n"


def _json_file(name: str, doc: dict) -> str:
    """:func:`_dump_json` of the output file ``name``; a non-finite number
    in it is a numerical failure, reported before any file is written."""
    try:
        return _dump_json(doc)
    except ValueError as e:
        raise FloatingPointError(f"{name} would hold a non-finite number ({e})") from None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _npy(d) -> bytes:
    """A tabulated density as ``.npy`` bytes: one (2, n) float64 array, the
    grid in row 0 and the density in row 1.  ``np.save`` writes the same
    bytes for the same array (``np.savez`` would not: zip entries carry a
    timestamp)."""
    buf = io.BytesIO()
    np.save(buf, np.stack([d.grid, d.density]), allow_pickle=False)
    return buf.getvalue()


def _input(path: Path, data: bytes) -> dict:
    """The manifest entry of an input file: its path and the sha256 of
    ``data``, the bytes that were read from it once and parsed."""
    return {"path": str(path), "sha256": _sha256(data)}


def _emit(
    args, command: str, inputs: list[dict], options: dict, seed, files: dict, text: str
) -> None:
    """The one output path of every subcommand.

    Writes ``files`` (name -> text, bytes, or a dict written as JSON with
    ``schema_version`` added) and a manifest of the run, listing the
    :func:`_input` entries ``inputs``, into ``--out``, then prints the first
    file (the command's JSON document) under ``--json`` and ``text``
    otherwise.
    """
    out = Path(args.out)
    written = {
        name: body if isinstance(body, (str, bytes))
        else _json_file(name, {**body, "schema_version": SCHEMA_VERSION})
        for name, body in files.items()
    }
    out.mkdir(parents=True, exist_ok=True)
    for name, body in written.items():
        if isinstance(body, bytes):
            (out / name).write_bytes(body)
        else:
            (out / name).write_text(body)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "backend": BACKEND,
        "subcommand": command,
        "inputs": inputs,
        "options": options,
        "seed": seed,
        "outputs": sorted([*written, "manifest.json"]),
    }
    (out / "manifest.json").write_text(_json_file("manifest.json", manifest))
    if args.json:
        print(next(iter(written.values())), end="")
    else:
        print(text)


def _read_corpus(path: Path):
    """The corpus in ``path`` and its :func:`_input` entry, from one read.
    The bytes are decoded as ``Path.read_text`` decodes them: the locale's
    encoding and universal newlines, so a CRLF file parses as an LF one."""
    data = path.read_bytes()
    text = io.TextIOWrapper(io.BytesIO(data), encoding=io.text_encoding(None)).read()
    return parse_collection(text), _input(path, data)


def _load_corpus(args):
    c, entry = _read_corpus(Path(args.path))
    if args.subset_recent is not None:
        c = subset_recent(c, args.subset_recent)
    return c, entry


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    seed = int.from_bytes(os.urandom(4), "big")
    print(f"seed: {seed} (generated; pass --seed {seed} to reproduce)", file=sys.stderr)
    return seed


def _mcmc_config(args, seed: int) -> McmcConfig:
    return McmcConfig(
        chains=args.chains, burn_in=args.burnin, iterations=args.iters, seed=seed
    )


def _family_list(text: str, known, what: str) -> tuple[str, ...]:
    """Comma list of distinct family tokens, each checked against ``known``."""
    families = tuple(f.strip() for f in text.split(",") if f.strip())
    for fam in families:
        if fam not in known:
            raise ValueError(f"unknown {what} {fam!r}; choose from {tuple(known)}")
        if families.count(fam) > 1:
            raise ValueError(f"{what} {fam!r} is listed more than once")
    return families


def _forest_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "estimate", "lo", "hi", "weight_or_type"])
    for r in rows:
        writer.writerow(
            [
                r["label"],
                repr(float(r["estimate"])),
                repr(float(r["lo"])),
                repr(float(r["hi"])),
                r["weight_or_type"],
            ]
        )
    return out.getvalue()


# -- subcommands ------------------------------------------------------------------


def cmd_validate(args) -> int:
    c, entry = _load_corpus(args)
    doc = validate_collection(c)
    lines = [f"{doc['analyses']} analyses, {doc['studies']} studies"]
    lines += [f"warning: {w}" for w in doc["warnings"]]
    _emit(
        args, "validate", [entry], {"subset_recent": args.subset_recent}, None,
        {"summary.json": doc}, "\n".join(lines),
    )
    return 0


def _fit_table(s, doc: dict) -> str:
    """Each hyperparameter's, tau*'s and the deviance's statistics, split-R-hat
    and Monte Carlo standard error, sd / sqrt(chains x kept) for independent
    draws."""
    names = list(s.hyper_names) + ["tau_star", "deviance"]
    root_n = (doc["chains"] * doc["kept_iterations"]) ** 0.5
    lines = [
        f"{'parameter':<12} {'mean':>9} {'sd':>9} {'50%':>9} {'95%':>9} {'99%':>9}"
        f" {'rhat':>7} {'mcse':>9}"
    ]
    for name in names:
        p = doc["parameters"][name]
        rhat = doc["diagnostics"][name]["rhat"]
        lines.append(
            f"{name:<12} {p['mean']:>9.4f} {p['sd']:>9.4f} {p['median']:>9.4f}"
            f" {p['q95']:>9.4f} {p['q99']:>9.4f}"
            f" {('-' if rhat is None else f'{rhat:.3f}'):>7}"
            f" {p['sd'] / root_n:>9.3g}"
        )
    lines += [f"warning: {w}" for w in doc["warnings"]]
    return "\n".join(lines)


def cmd_fit(args) -> int:
    c, entry = _load_corpus(args)
    seed = _resolve_seed(args)
    m = ModelSpec(het_family=args.family)
    cfg = _mcmc_config(args, seed)
    s = run_hierarchical(c, m, cfg)
    samples = samples_to_npy(s)
    doc = summary_dict(s)
    doc["columns"] = s.parameter_names()
    doc["samples_sha256"] = _sha256(samples)
    doc["seed"] = seed
    doc["config"] = {
        "family": args.family,
        "chains": cfg.chains,
        "burn_in": cfg.burn_in,
        "iterations": cfg.iterations,
        "thin": cfg.thin,
        "seed": seed,
    }
    files = {"summary.json": doc, "samples.npy": samples}
    if args.svg:
        files["tau_star.svg"] = histogram_svg(
            s.predictive.ravel(),
            x_label="predictive heterogeneity",
            title=f"predictive heterogeneity ({args.family})",
        )
    options = {
        "family": args.family,
        "chains": cfg.chains,
        "iterations": cfg.iterations,
        "burn_in": cfg.burn_in,
        "subset_recent": args.subset_recent,
    }
    _emit(args, "fit", [entry], options, seed, files, _fit_table(s, doc))
    return 0


def cmd_compare(args) -> int:
    c, entry = _load_corpus(args)
    families = _family_list(args.families, HET_FAMILIES, "family")
    seed = _resolve_seed(args)
    cfg = _mcmc_config(args, seed)
    rows = compare_models(c, families, cfg=cfg)
    doc = {
        "seed": seed,
        "models": comparison_to_dict(rows),
    }
    options = {
        "families": list(families),
        "chains": cfg.chains,
        "iterations": cfg.iterations,
        "burn_in": cfg.burn_in,
        "subset_recent": args.subset_recent,
    }
    _emit(args, "compare", [entry], options, seed, {"dic.json": doc}, format_comparison_table(rows))
    if all(r.error is not None for r in rows):
        print("numerical failure: every family failed to fit", file=sys.stderr)
        return 3
    return 0


def _make_prior(method: str, fit_family: str | None, s, source: str):
    """The prior of one ``--methods`` entry, for one fit family if it is a
    direct fit."""
    if method == "mixture":
        return mixture_match_prior(s, source=source)
    if method.startswith("point:"):
        return point_estimate_prior(s, method.split(":", 1)[1], source=source)
    if method == "ml":
        return fit_predictive_ml(s.predictive, fit_family, source=source)
    if method == "moments":
        return fit_predictive_moments(s.predictive, fit_family, source=source)
    raise ValueError(
        f"unknown method {method!r}; choose point:mean, point:median, point:q95, "
        "mixture, ml or moments"
    )


def _read_draws(src: Path, family: str | None):
    """The draws of the fit run at ``src`` (its ``--out`` directory or its
    ``samples.npy``) and their :func:`_input` entry; ``family``, if given,
    must be the one that run records.

    The file is read once; its bytes are checked against the
    ``samples_sha256`` that ``fit`` recorded in the ``summary.json`` beside
    it, and then loaded with the ``columns`` recorded there. A missing
    summary, a text draw file of schema 4 or older, and any damage exit 2
    naming the file and the cause.
    """
    path = src / "samples.npy" if src.is_dir() else src
    if path.suffix == ".csv" or (not path.exists() and path.with_suffix(".csv").exists()):
        raise ValueError(
            f"{path.with_suffix('.csv')} is a text draw file of schema 4 or older; approx reads "
            f"the samples.npy of schema {SCHEMA_VERSION}: re-run `hetprior fit` to write it"
        )
    data = path.read_bytes()
    entry = _input(path, data)
    sibling = path.parent / "summary.json"
    if not sibling.exists():
        raise ValueError(
            f"{path}: no {sibling.name} beside it; approx takes the draw columns and the "
            "family from the summary that `hetprior fit` writes there"
        )
    try:
        fit_summary = json.loads(sibling.read_text())
    except ValueError as e:
        raise ValueError(f"{sibling}: {e}") from None
    if not isinstance(fit_summary, dict):
        raise ValueError(f"{sibling} is not a JSON object")
    for key in ("family", "samples_sha256"):
        value = fit_summary.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{sibling}: {key!r} must be a string, got {json.dumps(value)}")
    columns = fit_summary.get("columns")
    if not (isinstance(columns, list) and all(isinstance(name, str) for name in columns)):
        raise ValueError(f"{sibling}: 'columns' must be a list of strings, got {json.dumps(columns)}")
    recorded = fit_summary.get("samples_sha256")
    if recorded is not None and entry["sha256"] != recorded:
        raise ValueError(
            f"{path} does not match the fit that wrote it: its sha256 is {entry['sha256']}, "
            f"{sibling} records {recorded}"
        )
    fit_family = fit_summary.get("family")
    family = family or fit_family
    if family is None:
        raise ValueError(f"family not given and {sibling} records none")
    if fit_family not in (None, family):
        raise ValueError(f"--family {family} contradicts {sibling}, which records the {fit_family} family")
    try:
        return samples_from_npy(data, family, columns), entry
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def cmd_approx(args) -> int:
    s, entry = _read_draws(Path(args.samples), args.family)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("--methods names no method")
    fit_families = _family_list(args.fit_families, FIT_FAMILIES, "fit family")
    if not fit_families:
        raise ValueError("--fit-families names no family")
    source = entry["path"]

    specs = []
    failures = []
    errors = []
    warns = []
    for method in methods:
        # a direct fit is one unit per fit family, so one family's failure keeps the others
        for fit_family in fit_families if method in ("ml", "moments") else (None,):
            where = "" if fit_family is None else f" for {fit_family}"
            failed = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    specs.append(_make_prior(method, fit_family, s, source))
                except (InfeasibleError, FitError) as e:
                    failed = e
            # a RuntimeWarning of the build (the half-t df cap) is a line of the list
            lines = []
            for w in caught:
                if issubclass(w.category, RuntimeWarning):
                    lines.append(f"{method}{where}: {w.message}")
                else:
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            if failed is not None:
                failure = {"method": method, "error": str(failed)}
                if fit_family is not None:
                    failure["family"] = fit_family
                failures.append(failure)
                errors.append(f"{method}{where}: {failed}")
                lines.append(f"{method} failed{where}: {failed}")
            for line in dict.fromkeys(lines):
                warns.append(line)
                print(f"warning: {line}", file=sys.stderr)
    if not specs:
        raise FitError("no prior could be produced: " + "; ".join(errors))

    rows = approximation_table(specs, s)
    doc = {
        "family": s.family,
        "source": source,
        "table": rows,
        "failures": failures,
        "warnings": warns,
    }
    priors_doc = {
        "family": s.family,
        "source": source,
        "priors": [prior_to_dict(spec) for spec in specs],
        "failures": failures,
    }
    files = {"summary.json": doc, "priors.json": priors_doc}
    if args.svg:
        draws = s.predictive.ravel()
        hi = float(np.quantile(draws, 0.995))
        xs = np.linspace(0.0, hi, 400)
        overlays = [(spec.text(), xs, spec.distribution.density(xs)) for spec in specs]
        files["approx.svg"] = histogram_svg(
            draws[draws <= hi],
            overlays=overlays,
            x_label="predictive heterogeneity",
            title="predictive draws and matched priors",
        )
    options = {"family": s.family, "methods": args.methods, "fit_families": list(fit_families)}
    _emit(args, "approx", [entry], options, None, files, format_approximation_table(rows))
    return 0


def cmd_analyze(args) -> int:
    c, entry = _read_corpus(Path(args.path))
    aid = c.resolve_id(args.analysis)
    sm = single_meta(c, aid)
    labels = [r.study_id for r in c.analysis(aid)]
    prior = parse_distribution(args.prior)
    mu_prior = None
    if args.mu_prior is not None:
        mu_prior = parse_distribution(args.mu_prior)
        if not isinstance(mu_prior, Normal):
            raise ValueError(
                f"--mu-prior must be a normal distribution, got {format_distribution(mu_prior)}"
            )
    res = bayes_ma(sm, prior, mu_prior)
    rows = forest_rows(sm, res, labels)
    doc = {
        "analysis": aid,
        "k": sm.k,
        "prior": prior_to_dict(res.prior),
        "mu": {
            "mean": res.mu_mean,
            "median": res.mu_median,
            "sd": res.mu_sd,
            "interval": list(res.mu_interval),
            "density_file": "mu_density.npy",
            "components": res.mu_components,
        },
        "tau": {
            "median": res.tau_median,
            "interval": list(res.tau_interval),
            "density_file": "tau_density.npy",
        },
        "comparators": [
            {"label": ci.label, "estimate": ci.estimate, "lo": ci.lo, "hi": ci.hi}
            for ci in res.comparators
        ],
        "warnings": list(res.warnings),
    }
    files = {
        "summary.json": doc,
        "forest.csv": _forest_csv(rows),
        "mu_density.npy": _npy(res.mu_density),
        "tau_density.npy": _npy(res.tau_density),
    }
    if args.svg:
        files["forest.svg"] = forest_svg(rows, title=f"meta-analysis {aid}")
        files["mu_density.svg"] = density_svg(
            [("effect posterior", res.mu_density.grid, res.mu_density.density)],
            shade=res.mu_interval,
            x_label="effect",
            title="effect posterior",
        )
        grid = res.tau_density.grid
        files["tau_density.svg"] = density_svg(
            [
                ("heterogeneity posterior", grid, res.tau_density.density),
                ("prior", grid, res.prior.density(grid)),
            ],
            shade=res.tau_interval,
            x_label="heterogeneity",
            title="heterogeneity prior and posterior",
        )
    lo, hi = res.mu_interval
    tlo, thi = res.tau_interval
    lines = [
        f"analysis {aid} (k={sm.k}) under prior {format_distribution(res.prior)}",
        f"effect: median {res.mu_median:.4f}  95% [{lo:.4f}, {hi:.4f}]  sd {res.mu_sd:.4f}",
        f"heterogeneity: median {res.tau_median:.4f}  95% [{tlo:.4f}, {thi:.4f}]",
    ]
    lines += [
        f"{ci.label:<14} {ci.estimate:>8.4f}  [{ci.lo:.4f}, {ci.hi:.4f}]" for ci in res.comparators
    ]
    lines += [f"warning: {w}" for w in res.warnings]
    options = {"analysis": aid, "prior": args.prior, "mu_prior": args.mu_prior}
    _emit(args, "analyze", [entry], options, None, files, "\n".join(lines))
    return 0


def cmd_tau_estimates(args) -> int:
    c, entry = _load_corpus(args)
    est = tau_estimate_collection(c, args.method)
    summary = est.summary()
    warns = []
    if est.skipped:
        warns.append(
            f"skipped {len(est.skipped)} single-study analyses (no heterogeneity "
            f"information): {', '.join(est.skipped)}"
        )
    doc = {
        "method": est.method,
        "estimates": [{"analysis": aid, "tau": tau} for aid, tau in est.estimates],
        "skipped": list(est.skipped),
        "summary": summary,
        "warnings": warns,
    }
    lines = [f"{'analysis':<20} {'tau_hat':>9}"]
    lines += [f"{aid:<20} {tau:>9.4f}" for aid, tau in est.estimates]
    lines.append(
        f"n={summary['n']}  fraction zero={summary['fraction_zero']:.2f}  "
        f"mean={summary['mean']:.4f}  median={summary['median']:.4f}"
    )
    lines += [f"warning: {w}" for w in warns]
    options = {"method": est.method, "subset_recent": args.subset_recent}
    _emit(args, "tau-estimates", [entry], options, None, {"summary.json": doc}, "\n".join(lines))
    return 0


# -- parser -----------------------------------------------------------------------


def _add_output_flags(sp, svg: bool = False) -> None:
    sp.add_argument("--out", default=".", help="output directory (default: current directory)")
    sp.add_argument("--json", action="store_true", help="print JSON instead of a text table")
    if svg:
        sp.add_argument("--svg", action="store_true", help="also write SVG plots")


def _add_corpus_flags(sp) -> None:
    sp.add_argument("path", help="corpus CSV (analysis_id,study_id,estimate,std_err[,seq])")
    sp.add_argument(
        "--subset-recent",
        type=int,
        metavar="N",
        default=None,
        help="keep only the N most recent analyses (by seq)",
    )


def _add_mcmc_flags(sp, draws: str = "") -> None:
    """The draw flags, their help ending in ``draws``, what the draws set."""
    sp.add_argument("--seed", type=int, default=None, help=f"RNG seed (generated if omitted){draws}")
    sp.add_argument("--chains", type=int, default=4, help=f"number of chains (default 4){draws}")
    sp.add_argument(
        "--iters", type=int, default=20000, help=f"kept iterations per chain (default 20000){draws}"
    )
    sp.add_argument(
        "--burnin", type=int, default=5000, help="recorded; no effect, the draws are independent"
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hetprior",
        description="Heterogeneity priors for random-effects meta-analysis.",
    )
    p.add_argument("--version", action="version", version=f"hetprior {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a corpus CSV and report its shape")
    _add_corpus_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("fit", help="fit the hierarchical heterogeneity model")
    _add_corpus_flags(sp)
    sp.add_argument(
        "--family",
        default="half-normal",
        choices=tuple(HET_FAMILIES),
        help="heterogeneity family (default half-normal)",
    )
    _add_mcmc_flags(sp)
    _add_output_flags(sp, svg=True)

    sp = sub.add_parser("compare", help="DIC comparison across heterogeneity families")
    _add_corpus_flags(sp)
    sp.add_argument(
        "--families",
        default=",".join(HET_FAMILIES),
        help="comma-separated families (default: all)",
    )
    _add_mcmc_flags(sp, "; sets the predictive columns only: the DIC takes no draws")
    _add_output_flags(sp)

    sp = sub.add_parser("approx", help="condense fitted samples into parametric priors")
    sp.add_argument("samples", help="samples.npy from a fit run (or its output directory)")
    sp.add_argument(
        "--family",
        default=None,
        choices=tuple(HET_FAMILIES),
        help="family that produced the samples (default and check: summary.json beside them)",
    )
    sp.add_argument(
        "--methods",
        default="point:mean,mixture",
        help="comma list of point:mean, point:median, point:q95, mixture, ml, moments",
    )
    sp.add_argument(
        "--fit-families",
        default="half-t",
        help="families for the ml/moments direct fits (comma list)",
    )
    _add_output_flags(sp, svg=True)

    sp = sub.add_parser("analyze", help="Bayesian meta-analysis of one dataset under a prior")
    sp.add_argument("path", help="CSV with the studies of one meta-analysis")
    sp.add_argument(
        "--prior", required=True, help="heterogeneity prior, e.g. 'half-t(8.2,0.20)'"
    )
    sp.add_argument(
        "--mu-prior",
        default=None,
        help="optional normal effect prior, e.g. 'normal(0,2)' (default: flat)",
    )
    sp.add_argument("--analysis", default=None, help="analysis id if the file holds several")
    _add_output_flags(sp, svg=True)

    sp = sub.add_parser("tau-estimates", help="DL/PM heterogeneity estimates per analysis")
    _add_corpus_flags(sp)
    sp.add_argument("--method", default="DL", help="DL or PM (default DL)")
    _add_output_flags(sp)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first :func:`main` call
    rather than at import, where it would add to every command's start-up."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a rebound ``cmd_*`` is the one that runs
    func = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return func(args)
    except (GridError, FitError, InfeasibleError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    # FormatError, RecordError, ConfigError and UndefinedEstimatorError are
    # ValueErrors; any other exception is a bug and propagates
    except (ValueError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
