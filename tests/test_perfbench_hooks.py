"""The benchmark's traced path: ``perfbench/spans.py`` wraps the program's
public functions and reads attributes of their results in hooks.  A change
to those results (a renamed field, a return type) breaks only the traced
benchmark run; these tests run the same wrapping on tiny commands."""

import importlib.util
import sys
from pathlib import Path

import pytest

import hetprior.cli

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

CORPUS = """analysis_id,study_id,estimate,std_err
a0,s0,0.12,0.30
a0,s1,-0.25,0.41
a0,s2,0.40,0.35
a1,s0,-0.10,0.22
a1,s1,0.05,0.28
a1,s2,-0.51,0.44
"""

MCMC = ["--seed", "5", "--chains", "2", "--iters", "40", "--burnin", "10"]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def tracer():
    spans = _load_spans()
    t = spans.Tracer()
    assert t.install() > 0
    try:
        yield t
    finally:
        t.restore()
    assert spans.Tracer.check_restored() == []


def test_traced_commands_run_and_feed_every_hook(tracer, tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(CORPUS)
    runs = [
        ["validate", str(corpus)],
        ["tau-estimates", str(corpus), "--method", "PM"],
        ["fit", str(corpus), *MCMC, "--out", str(tmp_path / "fit")],
        ["approx", str(tmp_path / "fit"), "--methods", "point:mean,mixture"],
        ["analyze", str(corpus), "--analysis", "a0", "--prior", "half-normal(0.5)"],
        ["compare", str(corpus), "--families", "half-normal,exp", *MCMC],
    ]
    for i, argv in enumerate(runs):
        if "--out" not in argv:
            argv = argv + ["--out", str(tmp_path / f"out{i}")]
        # through the module attribute, as the benchmark calls it
        assert hetprior.cli.main(argv) == 0, capsys.readouterr().err

    assert tracer.spans
    assert [s.name for s in tracer.spans if s.error] == []
    names = {s.name for s in tracer.spans}
    for command in ("validate", "tau_estimates", "fit", "approx", "analyze", "compare"):
        assert f"cli.cmd_{command}" in names

    def attrs(name):
        return [s.attrs for s in tracer.spans if s.name == name]

    assert len(attrs("metaanalysis.pm_estimate")) == 2

    (ma,) = attrs("metaanalysis.bayes_ma")
    assert ma["tau_grid_points"] > 0 and ma["mu_grid_points"] > 0
    # fit draws; compare scores its families from the quadrature tables
    runs = attrs("sampler.run_hierarchical")
    assert len(runs) == 1 and all(a["chain_iters"] == 2 * 50 for a in runs)
    s = tracer.last_samples
    assert s is not None

    # the benchmark's round-trip check sends the last draws through the CSV
    # export and import, which the commands no longer call
    sampler = sys.modules["hetprior.sampler"]
    text = sampler.samples_to_csv(s)
    back = sampler.samples_from_csv(text, s.family)
    assert (back.family, back.analysis_ids) == (s.family, s.analysis_ids)
    assert back.table.tobytes() == s.table.tobytes()
    (write,) = attrs("sampler.samples_to_csv")
    assert write["bytes"] == len(text.encode())
    assert write["values"] == s.table.size and write["kept_iters"] == 2 * 40
    (read,) = attrs("sampler.samples_from_csv")
    assert read["bytes"] == len(text.encode())

