"""Totality of svg.render: every chart of finite input draws in bounded time.

Coordinates are finite floats up to 1e300 in magnitude, along an axis
spread anywhere, all equal or at most four ulps apart, with some points not
finite; series may be empty or one point long.  Every render must parse as
XML, draw at most 2 * TICKS + 1 tick labels per axis, leave out the points
that are not finite and list every series, an empty one too, in its legend.
"""

import math
import time
import xml.etree.ElementTree as ET

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from drfrontier import svg

RENDER_SECONDS = 0.5
NS = "{http://www.w3.org/2000/svg}"
FINITE = st.floats(-1e300, 1e300)
NOT_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
LABELS = st.text(alphabet="abq_()", max_size=6)
# where render writes the labels of x ticks (their y), y ticks and the
# legend (their x)
X_TICK_Y, Y_TICK_X, LEGEND_X = "470", "58", "106"


def _ulps_above(x: float, k: int) -> float:
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


@st.composite
def axes(draw):
    """A strategy of one axis's finite values: any, one, or one and the
    floats up to four ulps above it."""
    form = draw(st.sampled_from(["any", "equal", "ulps"]))
    if form == "any":
        return FINITE
    base = draw(FINITE)
    if form == "equal":
        return st.just(base)
    return st.integers(0, 4).map(lambda k: _ulps_above(base, k))


@st.composite
def charts(draw):
    """render's arguments: series, markers and hlines on the drawn axes."""
    xs_of, ys_of = draw(axes()), draw(axes())

    def values(n, axis):
        vals = draw(st.lists(axis, min_size=n, max_size=n))
        for i in draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ():
            vals[i] = draw(NOT_FINITE)
        return vals

    series = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 5))
        series.append((draw(LABELS), values(n, xs_of), values(n, ys_of)))
    n = draw(st.integers(0, 3))
    markers = [(draw(LABELS), x, y) for x, y in zip(values(n, xs_of), values(n, ys_of))]
    hlines = [(draw(LABELS), y) for y in draw(st.lists(ys_of, max_size=1))]
    return series, markers, hlines


def _finite_count(xs, ys):
    return sum(math.isfinite(x) and math.isfinite(y) for x, y in zip(xs, ys))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(charts())
# one ulp above 1.5 the tick step is below half an ulp of the ticks, and at
# 1e17 adding 1 leaves an empty span empty
@example(([("s", [1.5, 1.5000000000000002], [0.5, 0.5])], [], []))
@example(([("s", [1e17, 1e17], [0.5, 0.5])], [], []))
def test_render_is_total_on_finite_input(chart):
    series, markers, hlines = chart
    start = time.perf_counter()
    text = svg.render("title", "q", series, markers, hlines)
    assert time.perf_counter() - start < RENDER_SECONDS
    root = ET.fromstring(text)
    texts = root.findall(f"{NS}text")
    assert len([t for t in texts if t.get("y") == X_TICK_Y]) <= 2 * svg.TICKS + 1
    assert len([t for t in texts if t.get("x") == Y_TICK_X]) <= 2 * svg.TICKS + 1
    drawn = [len(p.get("points").split()) for p in root.findall(f"{NS}polyline")]
    assert drawn == [c for c in (_finite_count(xs, ys) for _, xs, ys in series) if c]
    assert len(root.findall(f"{NS}circle")) == _finite_count(
        [x for _, x, _ in markers], [y for _, _, y in markers]
    )
    legend = [t.text or "" for t in texts if t.get("x") == LEGEND_X]
    assert legend == [label for label, _, _ in series]

