import numpy as np
import pytest

from hetprior import svg
from hetprior.svg import density_svg, forest_svg, histogram_svg


def test_histogram_svg_well_formed():
    rng = np.random.default_rng(4)
    values = rng.normal(0.3, 0.1, 500)
    doc = histogram_svg(values, x_label="x", title="hist")
    assert doc.startswith("<svg")
    assert doc.rstrip().endswith("</svg>")
    assert "<rect" in doc
    assert "hist" in doc


def test_histogram_svg_overlay_legend():
    rng = np.random.default_rng(5)
    values = rng.exponential(0.2, 300)
    xs = np.linspace(0, 1, 50)
    doc = histogram_svg(values, overlays=[("half-normal(0.2)", xs, np.exp(-xs))])
    assert "half-normal(0.2)" in doc
    assert "<polyline" in doc


def test_histogram_svg_empty_rejected():
    with pytest.raises(ValueError):
        histogram_svg(np.array([]))


def test_histogram_svg_deterministic():
    values = np.linspace(0.0, 1.0, 100)
    assert histogram_svg(values) == histogram_svg(values)


def test_forest_svg_rows_and_zero_line():
    rows = [
        {"label": "s1", "estimate": 0.2, "lo": -0.1, "hi": 0.5, "weight_or_type": "0.5"},
        {"label": "s2", "estimate": -0.3, "lo": -0.8, "hi": 0.2, "weight_or_type": "0.5"},
        {"label": "pooled", "estimate": 0.0, "lo": -0.2, "hi": 0.2, "weight_or_type": "posterior"},
    ]
    doc = forest_svg(rows, title="forest")
    assert doc.startswith("<svg")
    assert "s1" in doc and "s2" in doc and "pooled" in doc
    assert "stroke-dasharray" in doc  # zero reference line
    # summary rows are drawn as diamonds (polygon), studies as squares (rect)
    assert "<polygon" in doc and "<rect" in doc


def test_density_svg_shade_and_curves():
    xs = np.linspace(0, 2, 200)
    doc = density_svg(
        [("posterior", xs, np.exp(-xs)), ("prior", xs, 0.5 * np.exp(-0.5 * xs))],
        shade=(0.1, 1.2),
        x_label="tau",
    )
    assert doc.count("<polyline") >= 2
    assert "<polygon" in doc  # shaded interval
    assert "posterior" in doc and "prior" in doc


def _reference_points(xs, ys, x_px, y_px):
    """Pixel pairs mapped and formatted one point at a time."""
    return " ".join(f"{x_px(float(x)):.2f},{y_px(float(y)):.2f}" for x, y in zip(xs, ys))


def _random_curve(rng):
    n = int(rng.integers(1, 400))
    xs = np.sort(rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3, 3))
    ys = rng.exponential(1.0, n) * 10.0 ** rng.uniform(-3, 3)
    ys[rng.random(n) < 0.1] = 0.0
    return xs, ys


@pytest.mark.parametrize("seed", range(40))
def test_svg_points_match_a_per_point_reference(seed):
    rng = np.random.default_rng(seed)
    xs, ys = _random_curve(rng)
    lo, hi = float(xs.min()), float(xs.max())
    x_px, y_px = svg._x_scale(lo, hi), svg._y_scale(0.0, 1.05 * float(ys.max()))
    ref = _reference_points(xs, ys, x_px, y_px)
    assert svg._polyline(xs, ys, x_px, y_px, "#000") == (
        f'<polyline points="{ref}" fill="none" stroke="#000" stroke-width="1.5"/>'
    )
    # the shaded interval: the curve between two x values, closed at the axis
    a, b = np.sort(rng.uniform(lo, hi, 2))
    doc = svg.density_svg([("c", xs, ys)], shade=(a, b))
    mask = (xs >= a) & (xs <= b)
    if mask.any():
        seg_x, seg_y = xs[mask], ys[mask]
        ref = _reference_points(np.r_[seg_x[0], seg_x, seg_x[-1]], np.r_[0.0, seg_y, 0.0], x_px, y_px)
        assert f'<polygon points="{ref}" fill="#cccccc"/>' in doc
    else:
        assert "<polygon" not in doc
