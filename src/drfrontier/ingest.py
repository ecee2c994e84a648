"""CSV ingestion and annualization of return panels.

Input files carry a `date` column (ISO dates, strictly increasing) followed
by one column per asset, holding either prices or per-period returns.  The
per-period sample moments are scaled to annual units by the average period
length in years,

    delta = N / (365 * n_obs)

where N is the number of calendar days covered by the panel and n_obs the
number of return observations: mu = mu_hat / delta, V = V_hat / delta.
Annualization is a positive rescaling, so it preserves positive
semidefiniteness, and adding a constant to every date leaves delta (and the
universe) unchanged.

Parsing and every check of :func:`load_panel` run on the standard library;
numpy is imported when the returns array is first formed, so a panel can be
read and described (``ingest-check``) without it.
"""

from __future__ import annotations

import csv
import datetime
import functools
import logging
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import (
    NonMonotoneDatesError,
    ParseError,
    TooFewRowsError,
)

if TYPE_CHECKING:
    from .model import AssetUniverse

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReturnPanel:
    """Cleaned per-period return observations.

    dates has one entry per return row; for price input these are the dates
    of the later price in each ratio.  calendar_days spans the raw file
    (first to last row), so for price input it includes the initial price
    date that seeds the first return.

    values holds the numbers of the usable rows as parsed, row after row, in
    one flat buffer: prices or returns, as `format` says.  The returns array
    is formed from it on first access and kept with the panel.
    """

    assets: tuple
    dates: tuple
    values: array = field(repr=False)
    format: str
    log_returns: bool
    calendar_days: int
    periods: int
    dropped_rows: int = 0

    @functools.cached_property
    def returns(self):
        """Returns, one row per entry of dates and one column per asset
        (simple or log returns of the prices for format 'prices')."""
        import numpy as np

        values = np.frombuffer(self.values).reshape(-1, len(self.assets))
        if self.format == "returns":
            return values
        ratios = values[1:] / values[:-1]
        return np.log(ratios) if self.log_returns else ratios - 1.0


def _parse_rows(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not header or header[0].lower() != "date":
            raise ParseError(f"{path}: first column must be 'date', got {header[:1]}")
        assets = tuple(header[1:])
        if not assets:
            raise ParseError(f"{path}: no asset columns")

        dates = []
        values = array("d")
        dropped = 0
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: {len(row)} cells, expected {len(header)}"
                )
            if any(not c.strip() for c in row):
                dropped += 1
                continue
            try:
                day = datetime.date.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: column 'date': {exc}") from None
            for j, cell in enumerate(row[1:], start=1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: column '{header[j]}': "
                        f"not a number: {cell.strip()!r}"
                    ) from None
            dates.append(day)
    return assets, dates, values, dropped


def load_panel(path: str, format: str = "prices", log_returns: bool = False) -> ReturnPanel:
    """Load a CSV of prices or returns into a :class:`ReturnPanel`.

    format='prices' converts to simple returns p_t / p_{t-1} - 1 (or log
    returns when log_returns is set); format='returns' takes the numbers as
    given.  Rows with missing cells are dropped (counted, warned); dates
    must end up strictly increasing.
    """
    if format not in ("prices", "returns"):
        raise ParseError(f"unknown format {format!r}")
    assets, dates, values, dropped = _parse_rows(path)
    if dropped:
        log.warning("%s: dropped %d rows with missing cells", path, dropped)

    if len(dates) < 2:
        raise TooFewRowsError(f"{path}: {len(dates)} usable rows, need at least 2")
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise NonMonotoneDatesError(
                f"{path}: dates not strictly increasing at {cur.isoformat()}"
            )
    calendar_days = (dates[-1] - dates[0]).days

    if format == "prices":
        # min() > 0 proves every price positive: a NaN first makes it NaN,
        # and it skips a NaN later.  Otherwise find the first cell <= 0 in
        # file order; a NaN cell is not one, and does not hide one either.
        if not min(values) > 0.0:
            k = next((k for k, v in enumerate(values) if v <= 0.0), None)
            if k is not None:
                i, j = divmod(k, len(assets))
                raise ParseError(
                    f"{path}: nonpositive price for {assets[j]} on {dates[i].isoformat()}"
                )
        ret_dates = dates[1:]
    else:
        ret_dates = dates

    if len(ret_dates) < 2:
        raise TooFewRowsError(
            f"{path}: {len(ret_dates)} return rows, need at least 2"
        )
    return ReturnPanel(
        assets=assets,
        dates=tuple(ret_dates),
        values=values,
        format=format,
        log_returns=log_returns,
        calendar_days=calendar_days,
        periods=len(ret_dates),
        dropped_rows=dropped,
    )


def annualization_step(panel: ReturnPanel) -> float:
    """Average period length in years, delta = N / (365 * n_obs)."""
    if panel.periods < 1 or panel.calendar_days <= 0:
        raise TooFewRowsError("panel spans no calendar time")
    return panel.calendar_days / (365.0 * panel.periods)


def annualize(panel: ReturnPanel) -> AssetUniverse:
    """Annualized universe from a panel: sample moments scaled by 1 / delta.

    A sample covariance of deficient rank is legal; the universe simply
    comes back flagged singular (warned here) and the closed forms that
    need strict positive definiteness will refuse it downstream.
    """
    import numpy as np

    from .model import validate_universe

    delta = annualization_step(panel)
    mu = panel.returns.mean(axis=0) / delta
    if panel.returns.shape[1] == 1:
        v_hat = np.array([[float(np.var(panel.returns[:, 0], ddof=1))]])
    else:
        v_hat = np.cov(panel.returns, rowvar=False, ddof=1)
    universe = validate_universe(
        v_hat / delta, expected_returns=mu, names=panel.assets
    )
    if not universe.nonsingular:
        log.warning(
            "sample covariance is rank deficient (%d assets, %d observations)",
            len(panel.assets),
            panel.periods,
        )
    return universe
