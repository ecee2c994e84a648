import datetime
import logging

import numpy as np
import pytest

import drfrontier as drf
from drfrontier.errors import (
    DimensionMismatchError,
    NonMonotoneDatesError,
    ParseError,
    TooFewRowsError,
)

# The mini fixture covers 3 calendar days with 4 price rows for 2 assets,
# chosen so every moment is an exact fraction; fixtures/README.md has the
# worked arithmetic (delta = 1/365).
MINI_RBAR = np.array([73.0 / 6.0, -73.0 / 6.0])
MINI_COV = np.array([[73.0 / 15.0, -73.0 / 15.0], [-73.0 / 15.0, 511.0 / 60.0]])


def _write(tmp_path, text, name="panel.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_mini_panel_loads(fixture_dir):
    panel = drf.load_panel(fixture_dir / "mini_prices.csv", format="prices")
    assert panel.assets == ("AAA", "BBB")
    assert panel.periods == 3
    assert panel.calendar_days == 3
    assert panel.dropped_rows == 0
    assert len(panel.dates) == 3
    np.testing.assert_allclose(panel.returns[:, 0], [0.1, -0.1, 0.1], atol=1e-12)


def test_mini_panel_delta(fixture_dir):
    panel = drf.load_panel(fixture_dir / "mini_prices.csv", format="prices")
    assert drf.annualization_step(panel) == pytest.approx(1.0 / 365.0, rel=1e-12)


def test_mini_panel_annualized_moments(fixture_dir):
    panel = drf.load_panel(fixture_dir / "mini_prices.csv", format="prices")
    u = drf.annualize(panel)
    np.testing.assert_allclose(u.expected_returns, MINI_RBAR, rtol=1e-10)
    np.testing.assert_allclose(u.cov, MINI_COV, rtol=1e-10)
    assert u.names == ("AAA", "BBB")


def test_log_returns(tmp_path):
    p = _write(
        tmp_path,
        "date,X\n2020-01-01,100\n2020-01-02,110\n2020-01-03,99\n",
    )
    panel = drf.load_panel(p, format="prices", log_returns=True)
    np.testing.assert_allclose(
        panel.returns[:, 0], [np.log(1.1), np.log(0.9)], atol=1e-12
    )


def test_returns_format(tmp_path):
    p = _write(tmp_path, "date,X,Y\n2020-01-01,0.01,0.02\n2020-01-08,-0.03,0.04\n")
    panel = drf.load_panel(p, format="returns")
    assert panel.periods == 2
    assert panel.calendar_days == 7
    np.testing.assert_allclose(panel.returns, [[0.01, 0.02], [-0.03, 0.04]])
    assert drf.annualization_step(panel) == pytest.approx(7.0 / (365.0 * 2.0))


def test_unknown_format(tmp_path):
    p = _write(tmp_path, "date,X\n2020-01-01,1\n2020-01-02,2\n")
    with pytest.raises(ParseError):
        drf.load_panel(p, format="levels")


def test_delta_formula_year_span(tmp_path):
    # four prices spanning exactly one year: three returns, delta = 1/3
    p = _write(
        tmp_path,
        "date,X\n2020-03-01,1\n2020-07-01,2\n2020-11-01,1\n2021-03-01,2\n",
    )
    panel = drf.load_panel(p, format="prices")
    assert panel.calendar_days == 365
    assert drf.annualization_step(panel) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_date_translation_invariance(tmp_path):
    rows = ["date,X,Y"]
    shifted = ["date,X,Y"]
    base = datetime.date(2020, 1, 1)
    rng = np.random.default_rng(151)
    day = base
    for _ in range(40):
        x, y = rng.uniform(50, 150, 2)
        rows.append(f"{day.isoformat()},{x:.6f},{y:.6f}")
        shifted.append(f"{(day + datetime.timedelta(days=37)).isoformat()},{x:.6f},{y:.6f}")
        day += datetime.timedelta(days=int(rng.integers(1, 5)))
    a = drf.annualize(drf.load_panel(_write(tmp_path, "\n".join(rows) + "\n", "a.csv")))
    b = drf.annualize(drf.load_panel(_write(tmp_path, "\n".join(shifted) + "\n", "b.csv")))
    np.testing.assert_array_equal(a.cov, b.cov)
    np.testing.assert_array_equal(a.expected_returns, b.expected_returns)


def test_non_monotone_dates(tmp_path):
    p = _write(
        tmp_path,
        "date,X\n2020-01-03,1\n2020-01-02,2\n2020-01-04,3\n",
    )
    with pytest.raises(NonMonotoneDatesError):
        drf.load_panel(p)
    q = _write(
        tmp_path,
        "date,X\n2020-01-02,1\n2020-01-02,2\n2020-01-04,3\n",
        "dup.csv",
    )
    with pytest.raises(NonMonotoneDatesError):
        drf.load_panel(q)


def test_missing_cells_dropped_with_warning(tmp_path, caplog):
    p = _write(
        tmp_path,
        "date,X,Y\n2020-01-01,1,2\n2020-01-02,,2\n2020-01-03,3,4\n2020-01-04,4,5\n",
    )
    with caplog.at_level(logging.WARNING, logger="drfrontier.ingest"):
        panel = drf.load_panel(p)
    assert panel.dropped_rows == 1
    assert panel.periods == 2
    assert "dropped 1 rows" in caplog.text


def test_blank_lines_skipped(tmp_path):
    p = _write(tmp_path, "date,X\n2020-01-01,1\n\n2020-01-02,2\n2020-01-03,3\n")
    panel = drf.load_panel(p)
    assert panel.dropped_rows == 0
    assert panel.periods == 2


def test_parse_error_locates_bad_number(tmp_path):
    p = _write(tmp_path, "date,X,Y\n2020-01-01,1,2\n2020-01-02,oops,3\n")
    with pytest.raises(ParseError) as err:
        drf.load_panel(p)
    msg = str(err.value)
    assert ":3:" in msg
    assert "'X'" in msg
    assert "oops" in msg


def test_a_panel_that_is_not_utf8_is_a_parse_error(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"date,X,Y\n2020-01-01,1,2\n2020-01-02,\xff3,4\n2020-01-03,4,5\n")
    with pytest.raises(ParseError, match=f"^{p}: not UTF-8 text$"):
        drf.load_panel(str(p))


def test_rows_off_the_one_pass_path_parse_cell_by_cell(tmp_path, caplog):
    # padded cells parse in one pass; finite cells whose sum overflows, a
    # blank date cell and a blank number cell take the cell by cell path,
    # which keeps the first, drops the other two and counts them
    p = _write(
        tmp_path,
        "date,X,Y\n2020-01-01, 1.5 ,2\n2020-01-02,1e308,1e308\n ,3,4\n"
        "2020-01-03,,4\n2020-01-06,-1e308,-1e308\n",
    )
    with caplog.at_level(logging.WARNING, logger="drfrontier.ingest"):
        panel = drf.load_panel(p, format="returns")
    assert panel.dates == (
        datetime.date(2020, 1, 1), datetime.date(2020, 1, 2), datetime.date(2020, 1, 6)
    )
    np.testing.assert_array_equal(panel.returns, [[1.5, 2.0], [1e308, 1e308], [-1e308, -1e308]])
    assert panel.dropped_rows == 2 and "dropped 2 rows" in caplog.text


def test_parse_error_bad_date(tmp_path):
    p = _write(tmp_path, "date,X\n2020-13-01,1\n2020-01-02,2\n")
    with pytest.raises(ParseError) as err:
        drf.load_panel(p)
    assert "date" in str(err.value)


def test_parse_error_wrong_header(tmp_path):
    p = _write(tmp_path, "timestamp,X\n2020-01-01,1\n")
    with pytest.raises(ParseError):
        drf.load_panel(p)
    q = _write(tmp_path, "date\n2020-01-01\n", "noassets.csv")
    with pytest.raises(ParseError):
        drf.load_panel(q)


def test_parse_error_ragged_row(tmp_path):
    p = _write(tmp_path, "date,X,Y\n2020-01-01,1,2\n2020-01-02,3\n")
    with pytest.raises(ParseError) as err:
        drf.load_panel(p)
    assert "expected 3" in str(err.value)


def test_parse_error_nonpositive_price(tmp_path):
    p = _write(tmp_path, "date,X\n2020-01-01,5\n2020-01-02,0\n2020-01-03,4\n")
    with pytest.raises(ParseError) as err:
        drf.load_panel(p, format="prices")
    assert "nonpositive" in str(err.value)


@pytest.mark.parametrize("first", ["5", "nan"])
def test_nonpositive_price_after_a_nan_cell_is_found(tmp_path, first):
    # a NaN cell is refused where it is read, before the negative price
    # after it, whether it is the first cell or not
    p = _write(
        tmp_path,
        f"date,X,Y\n2020-01-01,{first},2\n2020-01-02,nan,3\n"
        "2020-01-03,4,-1\n2020-01-06,4,5\n",
    )
    with pytest.raises(ParseError) as err:
        drf.load_panel(p, format="prices")
    line = 2 if first == "nan" else 3
    assert f"panel.csv:{line}: column 'X': not a finite number: 'nan'" in str(err.value)


def test_too_few_rows(tmp_path):
    p = _write(tmp_path, "date,X\n2020-01-01,1\n")
    with pytest.raises(TooFewRowsError):
        drf.load_panel(p)
    # two prices make only one return, still too few
    q = _write(tmp_path, "date,X\n2020-01-01,1\n2020-01-02,2\n", "two.csv")
    with pytest.raises(TooFewRowsError):
        drf.load_panel(q, format="prices")


def test_empty_file(tmp_path):
    p = _write(tmp_path, "")
    with pytest.raises(ParseError):
        drf.load_panel(p)


def test_single_asset_panel_rejected_at_annualize(tmp_path):
    p = _write(tmp_path, "date,X\n2020-01-01,0.01\n2020-01-02,0.03\n")
    panel = drf.load_panel(p, format="returns")
    with pytest.raises(DimensionMismatchError):
        drf.annualize(panel)


def test_constant_prices_give_singular_universe(tmp_path, caplog):
    p = _write(
        tmp_path,
        "date,X,Y\n2020-01-01,10,20\n2020-01-02,10,20\n2020-01-03,10,20\n",
    )
    panel = drf.load_panel(p, format="prices")
    with caplog.at_level(logging.WARNING, logger="drfrontier.ingest"):
        u = drf.annualize(panel)
    assert not u.nonsingular
    np.testing.assert_allclose(u.cov, 0.0, atol=1e-15)
    assert "rank deficient" in caplog.text


def test_annualization_preserves_psd(tmp_path):
    rng = np.random.default_rng(157)
    rows = ["date,A,B,C,D,E"]
    day = datetime.date(2019, 1, 1)
    for _ in range(30):
        vals = rng.normal(0.0, 0.02, 5)
        rows.append(day.isoformat() + "," + ",".join(f"{v:.8f}" for v in vals))
        day += datetime.timedelta(days=1)
    panel = drf.load_panel(_write(tmp_path, "\n".join(rows) + "\n"), format="returns")
    u = drf.annualize(panel)
    evals = np.linalg.eigvalsh(u.cov)
    assert float(evals[0]) >= -1e-10 * max(float(evals[-1]), 1.0)


def test_synthetic_panel_thirty_assets(panel30, universe30):
    assert len(panel30.assets) == 30
    delta = drf.annualization_step(panel30)
    # weekday sampling over five years sits close to the 0.003952 figure
    # quoted for daily panels of this shape
    assert abs(delta - 0.003952) / 0.003952 < 0.05
    assert universe30.n == 30
    assert universe30.nonsingular
    evals = np.linalg.eigvalsh(universe30.cov)
    assert float(evals[0]) > 0.0
