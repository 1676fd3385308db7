import builtins
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from test_metaanalysis import capped_meta

from hetprior import cli
from hetprior.cli import _dump_json, main
from hetprior.data import parse_collection, validate_collection
from hetprior.dic import compare_models, comparison_to_dict
from hetprior.dist import HalfNormal, format_distribution, parse_distribution
from hetprior.metaanalysis import SingleMeta, bayes_ma, pm_estimate, single_meta, tau_marginal
from hetprior.sampler import (
    HET_FAMILIES,
    McmcConfig,
    ModelSpec,
    diagnostics,
    run_hierarchical,
    samples_from_csv,
    samples_from_npy,
    samples_to_csv,
    samples_to_npy,
)

CORPUS = """analysis_id,study_id,estimate,std_err,seq
a0,s0,0.12,0.30,0
a0,s1,-0.25,0.41,0
a0,s2,0.40,0.35,0
a1,s0,-0.10,0.22,1
a1,s1,0.05,0.28,1
a1,s2,-0.51,0.44,1
a1,s3,0.33,0.39,1
a2,s0,0.02,0.25,2
a2,s1,0.18,0.33,2
solo,s0,0.77,0.50,3
"""

SINGLE = """analysis_id,study_id,estimate,std_err
trial,alpha,-0.35,0.22
trial,beta,0.10,0.30
trial,gamma,-0.62,0.41
trial,delta,-0.11,0.26
"""


@pytest.fixture
def corpus_csv(tmp_path):
    p = tmp_path / "corpus.csv"
    p.write_text(CORPUS)
    return p


@pytest.fixture
def single_csv(tmp_path):
    p = tmp_path / "single.csv"
    p.write_text(SINGLE)
    return p


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory):
    """One small shared fit run; several tests read its outputs."""
    src = tmp_path_factory.mktemp("fit_input")
    p = src / "corpus.csv"
    p.write_text(CORPUS)
    out = tmp_path_factory.mktemp("fit_out")
    code = main(
        [
            "fit",
            str(p),
            "--seed",
            "11",
            "--chains",
            "2",
            "--iters",
            "800",
            "--burnin",
            "200",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


# -- validate ----------------------------------------------------------------------


def test_validate_reports_shape(corpus_csv, tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["validate", str(corpus_csv), "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["analyses"] == 4
    assert doc["studies"] == 10
    assert {d["analysis"]: d["k"] for d in doc["per_analysis"]}["solo"] == 1
    assert any("solo" in w for w in doc["warnings"])
    text = capsys.readouterr().out
    assert "4 analyses" in text and "warning" in text


def test_validate_missing_column_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("analysis_id,study_id\nx,y\n")
    assert main(["validate", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "estimate" in capsys.readouterr().err


def test_validate_bad_row_exits_2_with_row_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("analysis_id,study_id,estimate,std_err\na,s1,0.1,0.2\na,s2,oops,0.2\n")
    assert main(["validate", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "oops" in err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_input_with_a_byte_order_mark_reads_as_without_it(tmp_path):
    # Excel's "CSV UTF-8" writes the UTF-8 byte-order mark first
    runs = [(CORPUS, ["validate"]), (SINGLE, ["analyze", "--prior", "exp(0.3)"])]
    for text, (command, *flags) in runs:
        outs = {}
        for mark in (b"", b"\xef\xbb\xbf"):
            p = tmp_path / f"{command}-{mark.hex()}.csv"
            p.write_bytes(mark + text.encode())
            outs[mark] = tmp_path / f"{command}-{mark.hex()}"
            assert main([command, str(p), *flags, "--out", str(outs[mark])]) == 0, (command, mark)
            (entry,) = json.loads((outs[mark] / "manifest.json").read_text())["inputs"]
            assert entry["sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
        assert (outs[b""] / "summary.json").read_bytes() == (outs[b"\xef\xbb\xbf"] / "summary.json").read_bytes()


# -- inputs: read once, hashed as parsed -------------------------------------------


def test_each_input_is_read_once_and_the_manifest_hashes_those_bytes(
    corpus_csv, single_csv, fit_dir, tmp_path, monkeypatch
):
    reads = []
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not any(c in mode for c in "wax+"):
            reads.append(Path(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    mcmc = ["--seed", "2", "--chains", "2", "--iters", "40", "--burnin", "10"]
    runs = {
        "validate": ["validate", str(corpus_csv)],
        "tau-estimates": ["tau-estimates", str(corpus_csv), "--method", "PM"],
        "fit": ["fit", str(corpus_csv), *mcmc],
        "compare": ["compare", str(corpus_csv), "--families", "half-normal,exp", *mcmc],
        "approx": ["approx", str(fit_dir), "--methods", "point:mean"],
        "analyze": ["analyze", str(single_csv), "--prior", "exp(0.3)"],
    }
    for name, argv in runs.items():
        reads.clear()
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0, name
        counted = list(reads)
        (entry,) = json.loads((out / "manifest.json").read_text())["inputs"]
        path = Path(entry["path"])
        assert counted.count(path) == 1, (name, counted)
        assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_crlf_and_cr_inputs_parse_as_the_lf_one(tmp_path):
    # decoded with universal newlines, as ``Path.read_text`` decodes
    runs = [
        (CORPUS, ["validate"], ["summary.json"]),
        (CORPUS, ["tau-estimates"], ["summary.json"]),
        (CORPUS, ["fit", "--seed", "4", "--chains", "2", "--iters", "40", "--burnin", "10"],
         ["summary.json", "samples.npy"]),
        (SINGLE, ["analyze", "--prior", "exp(0.3)"], ["summary.json", "forest.csv", "mu_density.npy"]),
    ]
    for text, (command, *flags), names in runs:
        outs = {}
        for ending in ("\n", "\r\n", "\r"):
            p = tmp_path / f"{command}-{ending.encode().hex()}.csv"
            p.write_bytes(text.replace("\n", ending).encode())
            outs[ending] = tmp_path / f"{command}-{ending.encode().hex()}"
            assert main([command, str(p), *flags, "--out", str(outs[ending])]) == 0, (command, ending)
            (entry,) = json.loads((outs[ending] / "manifest.json").read_text())["inputs"]
            assert entry["sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
        for ending in ("\r\n", "\r"):
            for name in names:
                assert (outs["\n"] / name).read_bytes() == (outs[ending] / name).read_bytes(), (command, name)


# -- fit ---------------------------------------------------------------------------


def test_fit_outputs_and_manifest(fit_dir):
    for name in ("samples.npy", "summary.json", "manifest.json"):
        assert (fit_dir / name).exists()
    doc = json.loads((fit_dir / "summary.json").read_text())
    assert doc["family"] == "half-normal"
    assert doc["seed"] == 11
    assert doc["config"]["chains"] == 2
    assert "scale" in doc["parameters"]
    assert "tau_star" in doc["parameters"]
    assert doc["samples_sha256"] == hashlib.sha256((fit_dir / "samples.npy").read_bytes()).hexdigest()
    assert doc["columns"] == ["scale", *[f"{v}[{a}]" for v in ("mu", "tau") for a in ("a0", "a1", "a2", "solo")],
                              "tau_star", "deviance"]
    man = json.loads((fit_dir / "manifest.json").read_text())
    assert man["subcommand"] == "fit"
    assert man["seed"] == 11
    assert man["schema_version"] == 7
    assert man["tool_version"]
    src = man["inputs"][0]
    digest = hashlib.sha256(Path(src["path"]).read_bytes()).hexdigest()
    assert src["sha256"] == digest
    assert man["outputs"] == ["manifest.json", "samples.npy", "summary.json"]


def test_fit_draw_file_is_the_sampler_table_bit_for_bit(fit_dir):
    s = run_hierarchical(
        parse_collection(CORPUS), ModelSpec(), McmcConfig(chains=2, burn_in=200, iterations=800, seed=11)
    )
    table = np.load(fit_dir / "samples.npy", allow_pickle=False)
    assert table.dtype == np.float64 and table.flags.c_contiguous
    assert table.shape == (2, 800, len(s.parameter_names()))
    assert table.tobytes() == s.table.tobytes()
    assert (fit_dir / "samples.npy").read_bytes() == samples_to_npy(s)
    assert json.loads((fit_dir / "summary.json").read_text())["columns"] == s.parameter_names()


def test_fit_same_seed_reproduces_bytes(corpus_csv, tmp_path):
    args = ["fit", str(corpus_csv), "--seed", "7", "--chains", "2", "--iters", "300", "--burnin", "80"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "samples.npy").read_bytes() == (out2 / "samples.npy").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_fit_burnin_is_recorded_but_moves_no_draw(corpus_csv, tmp_path):
    # the draws are independent, so a burn-in changes nothing but the record
    args = ["fit", str(corpus_csv), "--seed", "7", "--chains", "2", "--iters", "300"]
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert main(args + ["--burnin", "80", "--out", str(out1)]) == 0
    assert main(args + ["--burnin", "5000", "--out", str(out2)]) == 0
    assert (out1 / "samples.npy").read_bytes() == (out2 / "samples.npy").read_bytes()
    assert json.loads((out2 / "manifest.json").read_text())["options"]["burn_in"] == 5000


def test_fit_text_table(corpus_csv, tmp_path, capsys):
    out = tmp_path / "t"
    assert (
        main(
            ["fit", str(corpus_csv), "--seed", "3", "--chains", "2", "--iters", "300", "--burnin", "80", "--out", str(out)]
        )
        == 0
    )
    text = capsys.readouterr().out
    assert "parameter" in text and "tau_star" in text and "deviance" in text


def test_fit_generated_seed_printed_and_recorded(corpus_csv, tmp_path, capsys):
    out = tmp_path / "g"
    assert (
        main(["fit", str(corpus_csv), "--chains", "2", "--iters", "200", "--burnin", "60", "--out", str(out)])
        == 0
    )
    stderr = capsys.readouterr().err
    line = next(l for l in stderr.splitlines() if l.startswith("seed:"))
    printed = int(line.split()[1])
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == printed
    assert json.loads((out / "summary.json").read_text())["seed"] == printed


def test_fit_svg_emitted(corpus_csv, tmp_path):
    out = tmp_path / "s"
    assert (
        main(
            ["fit", str(corpus_csv), "--seed", "3", "--chains", "2", "--iters", "200",
             "--burnin", "60", "--out", str(out), "--svg"]
        )
        == 0
    )
    doc = (out / "tau_star.svg").read_text()
    assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")


def test_fit_bad_family_exits_2(corpus_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(corpus_csv), "--family", "weibull", "--out", str(tmp_path)])
    assert exc.value.code == 2  # argparse rejects unknown choices itself


# -- samples round trip -------------------------------------------------------------


def test_samples_csv_round_trip():
    c = parse_collection(CORPUS)
    s = run_hierarchical(
        c, ModelSpec(het_family="exp"), McmcConfig(chains=2, burn_in=100, iterations=300, seed=5)
    )
    back = samples_from_csv(samples_to_csv(s), "exp")
    assert back.analysis_ids == s.analysis_ids
    assert back.hyper_names == s.hyper_names
    np.testing.assert_array_equal(back.mu, s.mu)
    np.testing.assert_array_equal(back.tau, s.tau)
    np.testing.assert_array_equal(back.predictive, s.predictive)
    np.testing.assert_array_equal(back.deviance, s.deviance)
    for name in s.hyper_names:
        np.testing.assert_array_equal(back.hyper[name], s.hyper[name])


def test_samples_from_csv_missing_column():
    c = parse_collection(SINGLE)
    s = run_hierarchical(c, ModelSpec(), McmcConfig(chains=2, burn_in=50, iterations=120, seed=9))
    text = samples_to_csv(s).replace("tau_star", "tau_other")
    with pytest.raises(ValueError, match="tau_star"):
        samples_from_csv(text, "half-normal")


# -- approx -------------------------------------------------------------------------


def test_approx_from_run_directory(fit_dir, tmp_path, capsys):
    out = tmp_path / "a"
    code = main(
        ["approx", str(fit_dir), "--methods", "point:mean,point:q95,mixture", "--out", str(out)]
    )
    assert code == 0
    priors = json.loads((out / "priors.json").read_text())
    assert priors["family"] == "half-normal"  # inferred from summary.json
    methods = [p["method"] for p in priors["priors"]]
    assert methods == ["point_estimate(mean)", "point_estimate(q95)", "mixture_match"]
    q95 = priors["priors"][1]
    assert q95["note"] == "conservative"
    doc = json.loads((out / "summary.json").read_text())
    assert doc["table"][0]["label"] == "MCMC"
    assert len(doc["table"]) == 4
    text = capsys.readouterr().out
    assert "prior" in text and "MCMC" in text


def test_approx_svg_overlays(fit_dir, tmp_path):
    out = tmp_path / "asvg"
    assert main(["approx", str(fit_dir), "--methods", "mixture", "--out", str(out), "--svg"]) == 0
    doc = (out / "approx.svg").read_text()
    assert doc.startswith("<svg") and "<polyline" in doc


def test_approx_explicit_family_on_the_draw_file_path(fit_dir, tmp_path):
    out = tmp_path / "bare"
    code = main(
        [
            "approx",
            str(fit_dir / "samples.npy"),
            "--family",
            "half-normal",
            "--methods",
            "moments",
            "--fit-families",
            "half-normal,log-normal",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    priors = json.loads((out / "priors.json").read_text())
    assert [p["family"] for p in priors["priors"]] == ["half-normal", "log-normal"]
    assert all(p["method"] == "direct_fit_moments" for p in priors["priors"])


def test_approx_family_contradicting_the_fit_exits_2(fit_dir, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["approx", str(fit_dir), "--family", "exp", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--family exp contradicts" in err and "records the half-normal family" in err
    assert not out.exists()
    # a summary without a family has none to check against, and the exp
    # family's draw columns are the half-normal's
    run = _copy_run(fit_dir, tmp_path / "run")
    doc = json.loads((run / "summary.json").read_text())
    del doc["family"]
    (run / "summary.json").write_text(json.dumps(doc))
    assert main(["approx", str(run), "--family", "exp", "--out", str(tmp_path / "nofamily")]) == 0
    assert main(["approx", str(run), "--family", "log-normal", "--out", str(out)]) == 2
    assert "columns for the log-normal family: missing column 'theta'" in capsys.readouterr().err
    assert not out.exists()


def test_approx_unknown_method_exits_2(fit_dir, tmp_path, capsys):
    assert main(["approx", str(fit_dir), "--methods", "magic", "--out", str(tmp_path / "x")]) == 2
    assert "magic" in capsys.readouterr().err


def test_approx_without_family_or_summary_exits_2(fit_dir, tmp_path, capsys):
    # the draw columns live in the summary, so a bare draw file is refused
    lone = tmp_path / "samples.npy"
    lone.write_bytes((fit_dir / "samples.npy").read_bytes())
    out = tmp_path / "o"
    for family in ([], ["--family", "half-normal"]):
        assert main(["approx", str(lone), *family, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{lone}: no summary.json beside it" in err and "family" in err
    assert not out.exists()


def _copy_run(fit_dir, run):
    """A copy of a fit run's draw file and summary in the new directory ``run``."""
    run.mkdir()
    for name in ("samples.npy", "summary.json"):
        (run / name).write_bytes((fit_dir / name).read_bytes())
    return run


def _npy_bytes(array, allow_pickle=False):
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _low_cv_run(run):
    """A fit-run directory with 400 draws of one analysis whose predictive
    has a low cv."""
    rng = np.random.default_rng(0)
    tau = rng.uniform(0.15, 0.25, 400)
    scale = rng.uniform(0.19, 0.21, 400)
    table = np.stack([scale, np.zeros(400), tau, tau, rng.normal(20, 2, 400)], axis=-1)[None]
    run.mkdir()
    (run / "samples.npy").write_bytes(_npy_bytes(table))
    doc = {"family": "half-normal", "columns": ["scale", "mu[a]", "tau[a]", "tau_star", "deviance"]}
    (run / "summary.json").write_text(json.dumps(doc))
    return run


def _with_nan(table):
    table = table.copy()
    table[1, 5, 2] = np.nan
    return table


# each case: (table -> file bytes, summary edits, message)
_DAMAGE = {
    "truncated": (lambda t: _npy_bytes(t)[:-8], {}, "EOF: reading array data"),
    "trailing-bytes": (lambda t: _npy_bytes(t) + b"\0" * 3, {}, "3 bytes follow the .npy array"),
    "not-npy": (lambda t: b"scale,tau_star\n0.1,0.2\n", {}, "not a .npy file"),
    "object-dtype": (lambda t: _npy_bytes(t.astype(object), allow_pickle=True), {},
                     "Object arrays cannot be loaded when allow_pickle=False"),
    "dtype": (lambda t: _npy_bytes(t.astype(np.float32)), {}, "dtype float32, expected float64"),
    "not-3d": (lambda t: _npy_bytes(t.reshape(-1, t.shape[-1])), {},
               "array of shape (1600, 11), expected 3 axes"),
    "width": (lambda t: _npy_bytes(t[..., :-1]), {}, "10 columns in the array, but 11 column names"),
    "no-draws": (lambda t: _npy_bytes(t[:, :0]), {}, "array of shape (2, 0, 11) holds no draws"),
    "columns-order": (_npy_bytes, {"columns": lambda c: c[:-2] + c[-1:] + c[-2:-1]},
                      "columns for the half-normal family: column 10 is 'deviance', expected 'tau_star'"),
    "columns-family": (_npy_bytes, {"family": lambda f: "log-normal"},
                       "columns for the log-normal family: missing column 'theta'"),
    "columns-not-list": (_npy_bytes, {"columns": lambda c: ",".join(c)},
                         "'columns' must be a list of strings"),
    "no-mu-columns": (lambda t: _npy_bytes(t[..., [0, -2, -1]]), {"columns": lambda c: [c[0], *c[-2:]]},
                      "the column names hold no mu[...] column"),
    "non-finite": (lambda t: _npy_bytes(_with_nan(t)), {}, "chain 1, draw 5: mu[a1] is nan"),
}


@pytest.mark.parametrize("case", list(_DAMAGE))
def test_approx_damaged_draw_file_exits_2(fit_dir, tmp_path, capsys, case):
    damage, edits, message = _DAMAGE[case]
    run = tmp_path / "run"
    run.mkdir()
    data = damage(np.load(fit_dir / "samples.npy"))
    (run / "samples.npy").write_bytes(data)
    doc = json.loads((fit_dir / "summary.json").read_text())
    doc.update({key: edit(doc[key]) for key, edit in edits.items()})
    # the summary records the damaged file, so the reader, not the digest, must catch it
    doc["samples_sha256"] = hashlib.sha256(data).hexdigest()
    (run / "summary.json").write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["approx", str(run), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert str(run / ("summary.json" if case == "columns-not-list" else "samples.npy")) in err
    assert not out.exists()


def test_approx_rejects_text_draw_file_with_rerun_hint(fit_dir, tmp_path, capsys):
    s = samples_from_npy((fit_dir / "samples.npy").read_bytes(), "half-normal",
                         json.loads((fit_dir / "summary.json").read_text())["columns"])
    run = tmp_path / "schema4"
    run.mkdir()
    (run / "samples.csv").write_text(samples_to_csv(s))
    (run / "summary.json").write_text((fit_dir / "summary.json").read_text())
    out = tmp_path / "o"
    for target in (run, run / "samples.csv"):
        assert main(["approx", str(target), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{run / 'samples.csv'} is a text draw file of schema 4 or older" in err
        assert "re-run `hetprior fit`" in err
    assert not out.exists()


def test_approx_rejects_draw_file_cut_at_chain_boundary(fit_dir, tmp_path, capsys):
    run = _copy_run(fit_dir, tmp_path / "run")
    table = np.load(run / "samples.npy")
    (run / "samples.npy").write_bytes(_npy_bytes(table[:1]))
    recorded = json.loads((run / "summary.json").read_text())["samples_sha256"]
    actual = hashlib.sha256((run / "samples.npy").read_bytes()).hexdigest()
    assert main(["approx", str(run), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "does not match the fit" in err and recorded in err and actual in err
    assert str(run / "samples.npy") in err
    # without the recorded digest only the reader checks the file, and one
    # whole chain is a well-formed draw file
    doc = json.loads((run / "summary.json").read_text())
    del doc["samples_sha256"]
    (run / "summary.json").write_text(json.dumps(doc))
    assert main(["approx", str(run), "--out", str(tmp_path / "nodigest")]) == 0


def test_approx_rejects_sibling_summary_that_is_not_an_object(fit_dir, tmp_path, capsys):
    (tmp_path / "samples.npy").write_bytes((fit_dir / "samples.npy").read_bytes())
    (tmp_path / "summary.json").write_text("[]\n")
    args = ["approx", str(tmp_path), "--family", "half-normal", "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert "summary.json is not a JSON object" in capsys.readouterr().err


def test_approx_all_methods_failing_exits_3(tmp_path, capsys):
    p = _low_cv_run(tmp_path / "run")
    code = main(
        ["approx", str(p), "--family", "half-normal", "--methods", "moments",
         "--fit-families", "lomax", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Lomax" in err


def test_approx_partial_failure_keeps_rest(tmp_path):
    p = _low_cv_run(tmp_path / "run")
    out = tmp_path / "o"
    code = main(
        ["approx", str(p), "--family", "half-normal", "--methods", "point:mean,moments",
         "--fit-families", "lomax", "--out", str(out)]
    )
    assert code == 0
    priors = json.loads((out / "priors.json").read_text())
    assert len(priors["priors"]) == 1
    assert priors["failures"][0]["method"] == "moments"


@pytest.fixture(scope="module")
def half_cauchy_fit_dir(tmp_path_factory):
    src = tmp_path_factory.mktemp("hc_input")
    (src / "corpus.csv").write_text(CORPUS)
    out = tmp_path_factory.mktemp("hc_out")
    argv = ["fit", str(src / "corpus.csv"), "--family", "half-cauchy", "--seed", "5",
            "--chains", "2", "--iters", "300", "--burnin", "80", "--out", str(out)]
    assert main(argv) == 0
    return out


@pytest.mark.parametrize(
    "methods, kept, failed",
    [
        ([], ["point_estimate(mean)"], "mixture"),
        (
            ["--methods", "point:mean,moments", "--fit-families", "half-cauchy,half-t"],
            ["point_estimate(mean)", "direct_fit_moments"],
            "moments",
        ),
    ],
    ids=["defaults", "moments"],
)
def test_approx_half_cauchy_fit_keeps_point_prior(half_cauchy_fit_dir, tmp_path, capsys, methods, kept, failed):
    out = tmp_path / "o"
    assert main(["approx", str(half_cauchy_fit_dir), *methods, "--out", str(out)]) == 0
    priors = json.loads((out / "priors.json").read_text())
    assert [p["method"] for p in priors["priors"]] == kept
    assert [f["method"] for f in priors["failures"]] == [failed]
    assert "half-cauchy" in priors["failures"][0]["error"]
    assert f"warning: {failed} failed" in capsys.readouterr().err


def test_approx_direct_fit_fails_per_family_and_keeps_the_rest(tmp_path, capsys):
    p = _low_cv_run(tmp_path / "run")  # 400 draws, below the 1000 an ML fit needs
    out = tmp_path / "o"
    argv = ["approx", str(p), "--family", "half-normal", "--methods", "point:mean,ml,moments",
            "--fit-families", "half-normal,lomax", "--out", str(out)]
    assert main(argv) == 0
    priors = json.loads((out / "priors.json").read_text())
    assert [(q["method"], q["family"]) for q in priors["priors"]] == [
        ("point_estimate(mean)", "half-normal"), ("direct_fit_moments", "half-normal"),
    ]
    assert [(f["method"], f["family"]) for f in priors["failures"]] == [
        ("ml", "half-normal"), ("ml", "lomax"), ("moments", "lomax"),
    ]
    assert "need at least 1000 draws" in priors["failures"][0]["error"]
    err = capsys.readouterr().err
    assert "warning: ml failed for half-normal: need at least 1000 draws" in err
    assert "warning: moments failed for lomax: sample cv" in err
    # summary.json holds the lines printed to stderr, in order
    warns = json.loads((out / "summary.json").read_text())["warnings"]
    assert [w.split(":")[0] for w in warns] == ["ml failed for half-normal", "ml failed for lomax",
                                                "moments failed for lomax"]
    assert [line for line in err.splitlines() if line.startswith("warning: ")] == [
        f"warning: {w}" for w in warns
    ]


def test_approx_records_the_half_t_df_cap_in_its_warnings(tmp_path, capsys):
    # scale draws with cv 3e-4 need a mixing df far above the 1e4 cap
    run = _low_cv_run(tmp_path / "run")
    table = np.load(run / "samples.npy")
    table[0, :, 0] = np.random.default_rng(1).uniform(0.1999, 0.2001, table.shape[1])
    (run / "samples.npy").write_bytes(_npy_bytes(table))
    out = tmp_path / "o"
    argv = ["approx", str(run), "--methods", "point:mean,mixture", "--out", str(out)]
    assert main(argv) == 0
    warns = json.loads((out / "summary.json").read_text())["warnings"]
    assert len(warns) == 1 and warns[0].startswith("mixture: scale_mixture_half_t: cv ")
    assert warns[0].endswith("needs df > 10000; capping (effectively half-normal)")
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("warning: ")] == [f"warning: {warns[0]}"]
    priors = json.loads((out / "priors.json").read_text())["priors"]
    assert [p["method"] for p in priors] == ["point_estimate(mean)", "mixture_match"]


@pytest.mark.parametrize(
    "tau_star, fit_families, fitted, failed",
    [
        (np.r_[0.0, np.linspace(0.01, 0.5, 1999)], "exp,log-normal", ["exp"],
         "1 of 2000 draws are exactly 0, where the log-normal has no density"),
        (np.full(2000, 0.2), "half-t,log-normal", ["half-normal"], "no spread in log draws: every draw is 0.2"),
    ],
    ids=["zero-draw", "constant"],
)
def test_approx_log_normal_ml_of_degenerate_draws_fails_by_name(tmp_path, capsys, tau_star, fit_families,
                                                               fitted, failed):
    run = tmp_path / "run"
    run.mkdir()
    n = tau_star.size
    table = np.stack([np.full(n, 0.2), np.zeros(n), np.full(n, 0.2), tau_star, np.full(n, 20.0)], axis=-1)[None]
    (run / "samples.npy").write_bytes(_npy_bytes(table))
    doc = {"family": "half-normal", "columns": ["scale", "mu[a]", "tau[a]", "tau_star", "deviance"]}
    (run / "summary.json").write_text(json.dumps(doc))
    out = tmp_path / "o"
    argv = ["approx", str(run), "--methods", "point:mean,ml", "--fit-families", fit_families, "--out", str(out)]
    assert main(argv) == 0
    warns = json.loads((out / "summary.json").read_text())["warnings"]
    assert warns == [f"ml failed for log-normal: {failed}"]
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("warning: ")] == [f"warning: {warns[0]}"]
    priors = json.loads((out / "priors.json").read_text())["priors"]
    assert [(q["method"], q["family"]) for q in priors] == [
        ("point_estimate(mean)", "half-normal"), *(("direct_fit_ml", f) for f in fitted)
    ]
    if fitted == ["half-normal"]:  # the half-t's limit, fitted exactly
        assert priors[1]["params"] == [0.2]


@pytest.mark.parametrize(
    "flags, named",
    [(["--methods", ","], "--methods"), (["--methods", "ml", "--fit-families", ""], "--fit-families")],
    ids=["methods", "fit-families"],
)
def test_approx_empty_list_exits_2(fit_dir, tmp_path, capsys, flags, named):
    out = tmp_path / "o"
    assert main(["approx", str(fit_dir), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and named in err
    assert not out.exists()


# -- analyze ------------------------------------------------------------------------


def test_analyze_forest_csv_layout(single_csv, tmp_path):
    out = tmp_path / "an"
    code = main(["analyze", str(single_csv), "--prior", "half-t(8.2,0.20)", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO((out / "forest.csv").read_text())))
    assert [r["label"] for r in rows[:4]] == ["alpha", "beta", "gamma", "delta"]
    weights = [float(r["weight_or_type"]) for r in rows[:4]]
    assert sum(weights) == pytest.approx(1.0)
    assert rows[4]["label"].startswith("bayes [half-t(8.2,0.2)]")
    assert rows[4]["weight_or_type"] == "posterior"
    tail = [r["label"] for r in rows[5:]]
    assert tail == ["normal", "hksj", "mkh", "common-effect"]
    assert all(r["weight_or_type"] == "comparator" for r in rows[5:])
    for r in rows:
        assert float(r["lo"]) <= float(r["estimate"]) <= float(r["hi"])


def test_analyze_summary_json_and_text(single_csv, tmp_path, capsys):
    out = tmp_path / "an"
    assert main(["analyze", str(single_csv), "--prior", "half-normal(0.5)", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["prior"]["text"] == "half-normal(0.5)"
    assert doc["k"] == 4
    lo, hi = doc["mu"]["interval"]
    assert lo < doc["mu"]["median"] < hi
    assert doc["tau"]["density_file"] == "tau_density.npy"
    # the file is tau_marginal's posterior, normalized by its cell masses
    td = tau_marginal(single_meta(parse_collection(single_csv.read_text())), HalfNormal(0.5))
    assert np.array_equal(np.load(out / "tau_density.npy"), np.stack([td.grid, td.density]))
    assert abs(np.cumsum(td.cell_mass)[-1] - 1.0) < 1e-12
    textout = capsys.readouterr().out
    assert "effect" in textout and "heterogeneity" in textout
    assert doc["warnings"] == [] and "warning" not in textout


def test_analyze_undefined_dl_drops_comparators_with_warning(tmp_path, capsys):
    # one standard error swamps the other: DL is undefined, the grid is not
    p = tmp_path / "tight.csv"
    p.write_text("analysis_id,study_id,estimate,std_err\ntight,s1,0.1,1e-10\ntight,s2,0.3,1.0\n")
    out = tmp_path / "an"
    assert main(["analyze", str(p), "--prior", "half-normal(0.5)", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["comparators"] == []
    assert len(doc["warnings"]) == 1
    assert doc["warnings"][0].startswith("frequentist comparators omitted: DL estimate undefined")
    assert "warning: frequentist comparators omitted" in capsys.readouterr().out
    labels = [row[0] for row in csv.reader(io.StringIO((out / "forest.csv").read_text()))]
    assert labels == ["label", "s1", "s2", "bayes [half-normal(0.5)]"]


def test_analyze_records_mixture_components(single_csv, tmp_path):
    out = tmp_path / "an"
    assert main(["analyze", str(single_csv), "--prior", "half-normal(0.5)", "--out", str(out)]) == 0
    k = json.loads((out / "summary.json").read_text())["mu"]["components"]
    assert isinstance(k, int) and 1 <= k < 2000


def _single_csv(path, sm):
    rows = [f"trial,s{i},{y!r},{s!r}" for i, (y, s) in enumerate(zip(sm.y, sm.sigma))]
    path.write_text("analysis_id,study_id,estimate,std_err\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize(
    "sm, mu_prior",
    [(SingleMeta(y=(-0.35, 0.10, -0.62), sigma=(0.22, 0.30, 0.41)), None),
     (capped_meta(), "normal(0,2)")],
    ids=["tiny", "capped"],
)
def test_analyze_density_files_hold_bayes_ma_arrays_bit_for_bit(sm, mu_prior, tmp_path):
    p = _single_csv(tmp_path / "ma.csv", sm)
    argv = ["analyze", str(p), "--prior", "lomax(9.9,1.5)"]
    if mu_prior is not None:
        argv += ["--mu-prior", mu_prior]
    assert main(argv + ["--out", str(tmp_path / "a1")]) == 0
    assert main(argv + ["--out", str(tmp_path / "a2")]) == 0
    res = bayes_ma(sm, parse_distribution("lomax(9.9,1.5)"),
                   None if mu_prior is None else parse_distribution(mu_prior))
    doc = json.loads((tmp_path / "a1" / "summary.json").read_text())
    for what, d in (("mu", res.mu_density), ("tau", res.tau_density)):
        name = f"{what}_density.npy"
        assert doc[what]["density_file"] == name
        assert (tmp_path / "a1" / name).read_bytes() == (tmp_path / "a2" / name).read_bytes()
        table = np.load(tmp_path / "a1" / name, allow_pickle=False)
        assert table.dtype == np.float64 and table.shape == (2, d.grid.size)
        assert table[0].tobytes() == d.grid.tobytes()
        assert table[1].tobytes() == d.density.tobytes()
    man = json.loads((tmp_path / "a1" / "manifest.json").read_text())
    assert {"mu_density.npy", "tau_density.npy"} <= set(man["outputs"])


def test_analyze_summary_holds_no_array_longer_than_an_interval(single_csv, tmp_path):
    out = tmp_path / "an"
    assert main(["analyze", str(single_csv), "--prior", "half-t(8.2,0.20)", "--out", str(out)]) == 0

    def number_lists(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            if node and all(isinstance(x, float) for x in node):
                yield node
            for x in node:
                yield from number_lists(x)

    doc = json.loads((out / "summary.json").read_text())
    assert max(len(x) for x in number_lists(doc)) == len(doc["mu"]["interval"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--analysis", "a", "--prior", "half-normal(0.5)"],
        ["fit", "--seed", "1", "--chains", "1", "--iters", "20", "--burnin", "5"],
        ["tau-estimates", "--method", "DL"],
        ["tau-estimates", "--method", "PM"],
    ],
    ids=["analyze", "fit", "tau-estimates-DL", "tau-estimates-PM"],
)
@pytest.mark.parametrize("estimate", ["5e199", "-1.0000000001e70"])
def test_out_of_range_estimate_exits_2_naming_row_and_value(argv, estimate, tmp_path, capsys):
    p = tmp_path / "y.csv"
    p.write_text(
        "analysis_id,study_id,estimate,std_err\n"
        f"a,s1,0.0,0.1\na,s2,{estimate},0.1\na,s3,1e200,0.1\nb,s1,0.1,0.2\nb,s2,0.3,0.4\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([argv[0], str(p), *argv[1:], "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"row 3: estimate {float(estimate)!r} is out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--analysis", "a", "--prior", "half-normal(0.5)"],
        ["fit", "--seed", "1", "--chains", "1", "--iters", "20", "--burnin", "5"],
        ["tau-estimates"],
    ],
    ids=["analyze", "fit", "tau-estimates"],
)
@pytest.mark.parametrize("std_err", ["1e-170", "1e-100", "2e154"])
def test_out_of_range_std_err_exits_2_naming_row_and_value(argv, std_err, tmp_path, capsys):
    p = tmp_path / "se.csv"
    p.write_text(
        "analysis_id,study_id,estimate,std_err\n"
        f"a,s1,0.1,0.2\na,s2,0.3,{std_err}\nb,s1,0.1,0.2\nb,s2,0.3,0.4\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([argv[0], str(p), *argv[1:], "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"row 3: std_err {float(std_err)!r} is out of range" in capsys.readouterr().err


_SWEEP_COMMANDS = {
    "validate": [],
    "tau-estimates": [],
    "fit": ["--seed", "1", "--chains", "2", "--iters", "50"],
    "compare": ["--seed", "1", "--chains", "2", "--iters", "50", "--families", "half-normal,exp"],
    "analyze": ["--analysis", "a", "--prior", "half-normal(0.5)"],
}


@pytest.mark.parametrize("command", list(_SWEEP_COMMANDS))
@pytest.mark.parametrize(
    "column, value",
    [
        ("estimate", "nan"), ("estimate", "inf"), ("estimate", "-inf"),
        ("std_err", "0"), ("std_err", "-0.1"), ("std_err", "nan"),
        ("std_err", ""), ("estimate", "abc"),
    ],
    ids=["nan-estimate", "inf-estimate", "neg-inf-estimate", "zero-se", "negative-se", "nan-se",
         "empty-field", "non-numeric"],
)
def test_damaged_input_fails_loudly_and_writes_no_nan(command, column, value, tmp_path, capsys):
    """One damaged cell in row 3 (analysis a, study s2), under every command
    that reads a corpus: the parser refuses it, so the command exits 2
    naming the row and the column, writes nothing (so no NaN or Infinity)
    and lets no RuntimeWarning escape."""
    cells = {"estimate": ["0.1", "0.3", "-0.2"], "std_err": ["0.2", "0.25", "0.3"]}
    cells[column][1] = value
    p = tmp_path / "damaged.csv"
    p.write_text(
        "analysis_id,study_id,estimate,std_err\n"
        + "".join(f"a,s{i},{cells['estimate'][i]},{cells['std_err'][i]}\n" for i in range(3))
        + "b,s1,0.1,0.2\nb,s2,0.3,0.4\n"
    )
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, str(p), *_SWEEP_COMMANDS[command], "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "row 3: " in err and column in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["analyze", "{single}", "--prior", "log-normal(800,1)"], 3,
         "numerical failure: prior LogNormal(mu=800.0, sigma=1.0) has no finite positive 0.9999 quantile"),
        (["analyze", "{single}", "--prior", "lomax(0.001,1)"], 3,
         "numerical failure: prior Lomax(shape=0.001, scale=1.0) has no finite positive 0.9999 quantile"),
        (["fit", "{corpus}", "--seed", "-1", "--iters", "50"], 2, "input error: seed must be an integer >= 0, got -1"),
        (["compare", "{corpus}", "--seed", "-1", "--iters", "50"], 2,
         "input error: seed must be an integer >= 0, got -1"),
        (["approx", "{fit_dir}", "--methods", "point:mean,mixture,point:mean"], 2,
         "input error: method 'point:mean' is listed more than once"),
    ],
    ids=["log-normal-prior", "lomax-prior", "fit-seed", "compare-seed", "duplicate-method"],
)
def test_input_out_of_range_fails_with_one_line_and_writes_nothing(
    argv, code, message, corpus_csv, single_csv, fit_dir, tmp_path, capsys
):
    """A prior whose quantile overflows, a negative seed and a repeated
    method: the command exits with its code, prints the one line that names
    the cause (no numpy warning before it, no rows of failed families) and
    writes nothing."""
    out = tmp_path / "o"
    paths = {"corpus": corpus_csv, "single": single_csv, "fit_dir": fit_dir}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), lines
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_one_draw_in_all_exits_2_before_sampling(command, corpus_csv, tmp_path, capsys):
    """One chain of one kept draw is too few for the summaries: the command
    exits 2 naming the draw count before it samples, and writes nothing."""
    out = tmp_path / "o"
    code = main([command, str(corpus_csv), "--seed", "1", "--chains", "1", "--iters", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "give 1 draw, but the summaries need at least 2" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_estimates_at_the_bound_fail_naming_the_analysis_and_write_no_nan(command, tmp_path, capsys):
    """Estimates 0, 5e69 and 1e70 (the bound itself) at se 0.1 put analysis
    a's heterogeneity beyond every family's hyperpriors: ``fit`` exits 3
    naming it, ``compare`` writes an error row naming it for every family
    and exits 3, and nothing written holds NaN or Infinity."""
    p = tmp_path / "edge.csv"
    p.write_text(
        "analysis_id,study_id,estimate,std_err\n"
        "a,s1,0,0.1\na,s2,5e69,0.1\na,s3,1e70,0.1\nb,s1,0.1,0.2\nb,s2,0.3,0.25\nb,s3,-0.2,0.3\n"
    )
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, str(p), "--seed", "1", "--chains", "2", "--iters", "50", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    if command == "fit":
        assert "analyses ['a'] have no likelihood" in err
    else:
        rows = json.loads((out / "dic.json").read_text())["models"]
        assert [row["model"] for row in rows] == list(HET_FAMILIES)
        assert all("analyses ['a'] have no likelihood" in row["error"] for row in rows)
    for path in out.rglob("*"):
        text = path.read_bytes().decode("latin-1")
        assert "NaN" not in text and "Infinity" not in text, path.name


def test_estimates_at_the_bound_stop_analyze_but_not_tau_estimates(tmp_path, capsys):
    """Analysis a alone, estimates 0, 5e69 and 1e70 at se 0.1: its tau
    posterior sits far beyond 60 doublings of the grid, so ``analyze`` exits
    3 saying so and writes nothing, while DL and PM both estimate tau 5e69
    and write finite JSON; no RuntimeWarning escapes either command."""
    p = tmp_path / "edge.csv"
    p.write_text(
        "analysis_id,study_id,estimate,std_err\na,s1,0,0.1\na,s2,5e69,0.1\na,s3,1e70,0.1\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = tmp_path / "analyze"
        assert main(["analyze", str(p), "--prior", "half-normal(0.5)", "--out", str(out)]) == 3
        assert "tau posterior mass does not decay" in capsys.readouterr().err
        assert not out.exists()
        for method in ("DL", "PM"):
            out = tmp_path / method
            assert main(["tau-estimates", str(p), "--method", method, "--out", str(out)]) == 0
            text = (out / "summary.json").read_text()
            assert "NaN" not in text and "Infinity" not in text
            [row] = json.loads(text)["estimates"]
            assert row == {"analysis": "a", "tau": pytest.approx(5e69, rel=1e-12)}


def test_analyze_reproducible_bytes(single_csv, tmp_path):
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    args = ["analyze", str(single_csv), "--prior", "exp(0.3)"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "forest.csv").read_bytes() == (out2 / "forest.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_analyze_svg_files(single_csv, tmp_path):
    out = tmp_path / "an"
    assert (
        main(["analyze", str(single_csv), "--prior", "half-normal(0.5)", "--out", str(out), "--svg"])
        == 0
    )
    for name in ("forest.svg", "mu_density.svg", "tau_density.svg"):
        doc = (out / name).read_text()
        assert doc.startswith("<svg"), name


def test_analyze_mu_prior(single_csv, tmp_path):
    out1, out2 = tmp_path / "flat", tmp_path / "tight"
    assert main(["analyze", str(single_csv), "--prior", "exp(0.3)", "--out", str(out1)]) == 0
    assert (
        main(["analyze", str(single_csv), "--prior", "exp(0.3)", "--mu-prior", "normal(0,0.05)", "--out", str(out2)])
        == 0
    )
    flat = json.loads((out1 / "summary.json").read_text())
    tight = json.loads((out2 / "summary.json").read_text())
    assert abs(tight["mu"]["median"]) < abs(flat["mu"]["median"])


def test_analyze_non_normal_mu_prior_exits_2(single_csv, tmp_path, capsys):
    code = main(
        ["analyze", str(single_csv), "--prior", "exp(0.3)", "--mu-prior", "exp(1)", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "normal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mu_prior, problem",
    [
        ("normal(0,1e200)", "sd 1e+200 is out of range"),
        ("normal(0,1e-200)", "sd 1e-200 is out of range"),
        ("normal(1e300,1)", "mean 1e+300 is out of range"),
    ],
)
def test_analyze_mu_prior_outside_a_studys_range_exits_2(single_csv, tmp_path, capsys, mu_prior, problem):
    out = tmp_path / "an"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", str(single_csv), "--prior", "half-normal(0.5)", "--mu-prior", mu_prior,
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"effect prior {format_distribution(parse_distribution(mu_prior))}: {problem}" in err
    assert not out.exists()


def test_analyze_multi_analysis_needs_flag(corpus_csv, tmp_path, capsys):
    assert main(["analyze", str(corpus_csv), "--prior", "exp(0.3)", "--out", str(tmp_path / "x")]) == 2
    assert "--analysis" in capsys.readouterr().err
    out = tmp_path / "picked"
    assert (
        main(["analyze", str(corpus_csv), "--prior", "exp(0.3)", "--analysis", "a1", "--out", str(out)])
        == 0
    )
    assert json.loads((out / "summary.json").read_text())["analysis"] == "a1"


def test_analyze_unknown_analysis_names_it_and_the_ids_held(corpus_csv, tmp_path, capsys):
    code = main(["analyze", str(corpus_csv), "--prior", "exp(0.3)", "--analysis", "zz", "--out", str(tmp_path)])
    assert code == 2
    assert "no analysis 'zz' in the collection; it holds a0, a1, a2, solo" in capsys.readouterr().err


@pytest.mark.parametrize("prior,text", [("half-normal(0.004)", "half-normal(0.004)"), ("exp(1e-9)", "exp(1e-09)")])
def test_analyze_prior_below_rounding_keeps_two_significant_digits(single_csv, tmp_path, prior, text):
    out = tmp_path / "an"
    assert main(["analyze", str(single_csv), "--prior", prior, "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["prior"]["text"] == text
    assert doc["prior"]["params"] == [float(text[text.index("(") + 1 : -1])]


def test_analyze_records_the_prior_as_given(single_csv, tmp_path, capsys):
    out = tmp_path / "an"
    assert main(["analyze", str(single_csv), "--prior", "half-normal(0.123)", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["prior"] == {"family": "half-normal", "params": [0.123], "text": "half-normal(0.123)"}
    assert "under prior half-normal(0.123)" in capsys.readouterr().out
    labels = [row[0] for row in csv.reader(io.StringIO((out / "forest.csv").read_text()))]
    assert "bayes [half-normal(0.123)]" in labels


def test_analyze_unparseable_prior_exits_2(single_csv, tmp_path, capsys):
    assert main(["analyze", str(single_csv), "--prior", "gauss(1)", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("prior", ["normal(0,1)", "uniform(-1,1)"])
def test_analyze_prior_with_mass_below_zero_exits_2(single_csv, tmp_path, capsys, prior):
    out = tmp_path / "an"
    assert main(["analyze", str(single_csv), "--prior", prior, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"heterogeneity prior {prior} has cdf(0) = 0.5" in err
    assert not out.exists()


def test_analyze_prior_starting_at_zero_runs(single_csv, tmp_path):
    assert main(["analyze", str(single_csv), "--prior", "uniform(0,1)", "--out", str(tmp_path / "an")]) == 0


# -- tau-estimates ------------------------------------------------------------------


def test_tau_estimates_matches_library(corpus_csv, tmp_path):
    out = tmp_path / "te"
    assert main(["tau-estimates", str(corpus_csv), "--method", "PM", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["method"] == "PM"
    assert doc["skipped"] == ["solo"]
    c = parse_collection(CORPUS)
    for entry in doc["estimates"]:
        records = c.analysis(entry["analysis"])
        sm = SingleMeta(
            y=tuple(r.estimate for r in records), sigma=tuple(r.std_err for r in records)
        )
        assert entry["tau"] == pytest.approx(pm_estimate(sm), abs=1e-12)
    assert set(doc["summary"]) == {"n", "fraction_zero", "mean", "median"}


def test_tau_estimates_subset_recent(corpus_csv, tmp_path):
    out = tmp_path / "te"
    assert main(["tau-estimates", str(corpus_csv), "--subset-recent", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    ids = [e["analysis"] for e in doc["estimates"]] + list(doc["skipped"])
    assert sorted(ids) == ["a2", "solo"]


def test_tau_estimates_degenerate_weights_exit_2(tmp_path, capsys):
    p = tmp_path / "tight.csv"
    p.write_text(CORPUS + "tight,s0,0.1,1e-10,4\ntight,s1,0.3,1.0,4\n")
    assert main(["tau-estimates", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "analysis tight" in err and "denominator" in err


def test_tau_estimates_bad_method_exits_2(corpus_csv, tmp_path, capsys):
    assert main(["tau-estimates", str(corpus_csv), "--method", "REML", "--out", str(tmp_path)]) == 2


# -- compare ------------------------------------------------------------------------


def test_compare_two_families(corpus_csv, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        ["compare", str(corpus_csv), "--families", "half-normal,exp", "--seed", "2",
         "--chains", "2", "--iters", "300", "--burnin", "80", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "dic.json").read_text())
    assert {m["model"] for m in doc["models"]} == {"half-normal", "exp"}
    assert all("dic" in m for m in doc["models"])
    text = capsys.readouterr().out
    assert "DIC" in text
    man = json.loads((out / "manifest.json").read_text())
    assert man["options"]["families"] == ["half-normal", "exp"]


def test_compare_single_family_exits_2(corpus_csv, tmp_path, capsys):
    code = main(["compare", str(corpus_csv), "--families", "exp", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("families, bad", [("half-normal,hlaf-cauchy", "hlaf-cauchy"), ("weibull,gamma", "weibull")])
def test_compare_unknown_family_exits_2_before_sampling(corpus_csv, tmp_path, capsys, families, bad):
    out = tmp_path / "cmp"
    code = main(["compare", str(corpus_csv), "--families", families, "--seed", "1", "--out", str(out)])
    assert code == 2
    assert repr(bad) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, token",
    [
        (["compare", "{corpus}", "--families", "exp,half-normal,exp", "--seed", "1", "--chains", "1",
          "--iters", "50", "--burnin", "10"], "exp"),
        (["approx", "{fit_dir}", "--methods", "ml", "--fit-families", "half-t,half-t"], "half-t"),
        (["approx", "{fit_dir}", "--methods", "point:mean,point:mean,mixture"], "point:mean"),
    ],
    ids=["compare-families", "approx-fit-families", "approx-methods"],
)
def test_repeated_family_token_exits_2(argv, token, corpus_csv, fit_dir, tmp_path, capsys):
    out = tmp_path / "o"
    paths = {"corpus": corpus_csv, "fit_dir": fit_dir}
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
    assert f"{token!r} is listed more than once" in capsys.readouterr().err
    assert not out.exists()


def test_approx_help_and_readme_list_the_methods_and_fit_families_of_the_tables(capsys, monkeypatch):
    from hetprior.summarize import FIT_FAMILIES, ROUTES

    monkeypatch.setenv("COLUMNS", "1000")  # no line break inside a hyphenated name
    with pytest.raises(SystemExit):
        main(["approx", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    for table in (ROUTES, FIT_FAMILIES):
        assert f"comma list of {', '.join(table)}" in help_text
        assert ", ".join(f"`{name}`" for name in table) in readme


@pytest.mark.parametrize(
    "argv",
    [["validate", "{corpus}"], ["tau-estimates", "{corpus}"], ["compare", "{corpus}", "--seed", "1", "--chains", "1", "--iters", "50", "--burnin", "10"]],
    ids=["validate", "tau-estimates", "compare"],
)
def test_svg_flag_only_on_commands_that_plot(argv, corpus_csv, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([a.format(corpus=corpus_csv) for a in argv] + ["--svg", "--out", str(out)])
    assert exc.value.code == 2
    assert "--svg" in capsys.readouterr().err
    assert not out.exists()


def test_fit_too_short_for_rhat_warns_and_writes_no_nan(corpus_csv, tmp_path):
    out = tmp_path / "fit"
    argv = ["fit", str(corpus_csv), "--seed", "2", "--chains", "2", "--iters", "3",
            "--burnin", "5", "--out", str(out)]
    assert main(argv) == 0
    text = (out / "summary.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    doc = json.loads(text)
    assert doc["diagnostics"]["scale"]["rhat"] is None
    assert "scale: split-Rhat undefined with 3 draws per chain (needs 4)" in doc["warnings"]


# -- --json prints exactly the written document ---------------------------------------

_MCMC = ["--chains", "2", "--iters", "300", "--burnin", "80"]


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["validate", "{corpus}"], "summary.json"),
        (["tau-estimates", "{corpus}"], "summary.json"),
        (["fit", "{corpus}", "--seed", "3", *_MCMC], "summary.json"),
        (["fit", "{corpus}", *_MCMC], "summary.json"),
        (["approx", "{fit_dir}", "--methods", "point:mean,mixture"], "summary.json"),
        (["analyze", "{single}", "--prior", "exp(0.3)"], "summary.json"),
        (["compare", "{corpus}", "--families", "half-normal,exp", "--seed", "2", *_MCMC], "dic.json"),
        (["compare", "{corpus}", "--families", "half-normal,exp", *_MCMC], "dic.json"),
    ],
    ids=["validate", "tau-estimates", "fit", "fit-generated-seed", "approx", "analyze", "compare",
         "compare-generated-seed"],
)
def test_json_mode_matches_file(argv, doc, corpus_csv, single_csv, fit_dir, tmp_path, capsys):
    paths = {"corpus": corpus_csv, "single": single_csv, "fit_dir": fit_dir}
    out = tmp_path / "j"
    assert main([a.format(**paths) for a in argv] + ["--json", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == (out / doc).read_text()
    assert json.loads(printed)["schema_version"] == 7


# -- the library functions return the documents their commands write ------------------


def _without_schema_version(doc: dict) -> dict:
    return {key: value for key, value in doc.items() if key != "schema_version"}


def test_library_results_are_the_written_documents(corpus_csv, fit_dir, tmp_path):
    c = parse_collection(CORPUS)
    assert main(["validate", str(corpus_csv), "--out", str(tmp_path / "v")]) == 0
    written = json.loads((tmp_path / "v" / "summary.json").read_text())
    assert _without_schema_version(written) == validate_collection(c)

    fit = json.loads((fit_dir / "summary.json").read_text())
    s = samples_from_npy((fit_dir / "samples.npy").read_bytes(), "half-normal", fit["columns"])
    assert fit["diagnostics"] == diagnostics(s)[0]

    argv = ["--seed", "2", "--chains", "2", "--iters", "300", "--burnin", "80"]
    assert main(["compare", str(corpus_csv), "--families", "half-normal,half-cauchy", *argv,
                 "--out", str(tmp_path / "cmp")]) == 0
    written = json.loads((tmp_path / "cmp" / "dic.json").read_text())
    cfg = McmcConfig(chains=2, burn_in=80, iterations=300, seed=2)
    assert written["models"] == comparison_to_dict(compare_models(c, ["half-normal", "half-cauchy"], cfg))


# -- JSON documents ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, np.float64(math.nan), np.array([0.0, -math.inf])],
    ids=["nan", "inf", "-inf", "float64-nan", "array-inf"],
)
def test_dump_json_refuses_non_finite_numbers(value):
    doc = {"a": [1, 2.5, None, True, (3, 4.0)], "b": {"grid": np.array([[1.0, 2.0]])}}
    assert json.loads(_dump_json(doc)) == {"a": [1, 2.5, None, True, [3, 4.0]], "b": {"grid": [[1.0, 2.0]]}}
    with pytest.raises(ValueError, match="not JSON compliant"):
        _dump_json({**doc, "x": {"y": [value]}})


def test_non_finite_output_is_a_numerical_failure_naming_the_file(corpus_csv, tmp_path, capsys, monkeypatch):
    real = cli.tau_estimate_collection

    def leaky(c, method):
        est = real(c, method)
        return dataclasses.replace(est, estimates=(("a0", math.nan), *est.estimates[1:]))

    monkeypatch.setattr(cli, "tau_estimate_collection", leaky)
    out = tmp_path / "o"
    assert main(["tau-estimates", str(corpus_csv), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: summary.json would hold a non-finite number")
    assert not out.exists()


# -- exit codes ----------------------------------------------------------------------


def test_programming_error_propagates_instead_of_reading_as_input_error(corpus_csv, tmp_path, monkeypatch):
    def broken(*args):
        raise TypeError("bug in the exp density")

    monkeypatch.setitem(HET_FAMILIES, "exp", HET_FAMILIES["exp"]._replace(cdf=broken))
    argv = ["compare", str(corpus_csv), "--families", "half-normal,exp", "--seed", "2", *_MCMC]
    with pytest.raises(TypeError, match="bug in the exp density"):
        main(argv + ["--out", str(tmp_path / "cmp")])


@pytest.mark.parametrize(
    "key, value",
    [("family", ["half-normal"]), ("family", {"name": "half-normal"}), ("family", 1),
     ("samples_sha256", 123), ("samples_sha256", ["abc"])],
)
def test_approx_sibling_summary_values_must_be_strings(fit_dir, tmp_path, capsys, key, value):
    (tmp_path / "samples.npy").write_bytes((fit_dir / "samples.npy").read_bytes())
    doc = json.loads((fit_dir / "summary.json").read_text())
    (tmp_path / "summary.json").write_text(json.dumps({**doc, key: value}))
    assert main(["approx", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"summary.json: {key!r} must be a string, got {json.dumps(value)}" in err
    assert not (tmp_path / "o").exists()


# -- SVG text ------------------------------------------------------------------------

MARKUP_CORPUS = """analysis_id,study_id,estimate,std_err
X<1>,A&B,0.12,0.30
X<1>,"s ""2"" > 1",-0.25,0.41
X<1>,s3,0.40,0.35
Y&Z,s0,-0.10,0.22
Y&Z,s1,0.05,0.28
"""


def _svg_texts(path):
    root = ElementTree.parse(path).getroot()  # raises unless well-formed
    return [el.text for el in root.iter() if el.tag.endswith(("}text", "}title"))]


def test_svg_labels_from_input_are_escaped(tmp_path):
    p = tmp_path / "markup.csv"
    p.write_text(MARKUP_CORPUS)
    fit = tmp_path / "fit"
    assert main(["fit", str(p), "--seed", "5", *_MCMC, "--svg", "--out", str(fit)]) == 0
    assert main(["approx", str(fit), "--svg", "--out", str(tmp_path / "ap")]) == 0
    an = tmp_path / "an"
    assert main(["analyze", str(p), "--analysis", "X<1>", "--prior", "half-normal(0.5)",
                 "--svg", "--out", str(an)]) == 0
    for svg in (fit / "tau_star.svg", tmp_path / "ap" / "approx.svg",
                an / "mu_density.svg", an / "tau_density.svg"):
        _svg_texts(svg)
    texts = _svg_texts(an / "forest.svg")
    assert texts[0] == "meta-analysis X<1>"
    assert {"A&B", 's "2" > 1', "s3"} <= set(texts)


# -- start-up cost ---------------------------------------------------------------------


def test_main_builds_one_parser_and_runs_the_command_bound_at_call_time(single_csv, tmp_path, monkeypatch):
    cli._parser.cache_clear()
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    argv = ["analyze", str(single_csv), "--prior", "exp(0.3)", "--out"]
    assert main(argv + [str(tmp_path / "first")]) == 0
    # a benchmark tracer rebinds the command functions between calls
    ran = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: ran.append(args.path) or 0)
    assert main(argv + [str(tmp_path / "second")]) == 0
    assert built == [1]
    assert ran == [str(single_csv)]
    assert not (tmp_path / "second").exists()


_FOOTPRINT = """
import contextlib, io, json, sys
from hetprior import cli

corpus, single, spread, out = sys.argv[1:]
heavy = ("scipy.optimize", "scipy.integrate", "scipy.sparse", "scipy.linalg")
mcmc = ["--seed", "1", "--chains", "2", "--iters", "40", "--burnin", "10"]
runs = {
    "import": None,
    "validate": ["validate", corpus],
    "tau-estimates": ["tau-estimates", corpus],
    "fit": ["fit", corpus, *mcmc],
    "compare": ["compare", corpus, "--families", "half-normal,exp", *mcmc],
    "analyze": ["analyze", single, "--prior", "half-t(4,0.3)", "--mu-prior", "normal(0,2)"],
    "tau-estimates PM": ["tau-estimates", spread, "--method", "PM"],
}
loaded = {}
for name, argv in runs.items():
    if argv is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--out", f"{out}/{name}"]) == 0, name
    loaded[name] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


def test_commands_load_scipy_optimize_only_when_they_run_it(corpus_csv, single_csv, tmp_path):
    # scipy.optimize and scipy.integrate add about 0.4 s to a command's
    # start-up; only the commands that call them may load them
    src = str(Path(cli.__file__).parents[1])
    spread = tmp_path / "spread.csv"  # Q far above k - 1: PM runs its root search
    spread.write_text("analysis_id,study_id,estimate,std_err\na,s0,0.0,0.1\na,s1,1.0,0.1\na,s2,2.0,0.1\n")
    argv = [sys.executable, "-c", _FOOTPRINT, *map(str, (corpus_csv, single_csv, spread, tmp_path))]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    assert "scipy.optimize" in loaded.pop("tau-estimates PM")
    assert loaded == dict.fromkeys(loaded, [])
