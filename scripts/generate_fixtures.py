"""Regenerate the fixtures/ directory.

Deterministic: fixed seed, fixed calendar.  Run from the repo root:

    python3 scripts/generate_fixtures.py

Prints the qualitative properties the synthetic panel is tuned for (see
tests/test_acceptance.py) so changes here are easy to audit.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import drfrontier as drf
from drfrontier import frontiers

OUT = os.path.join(os.path.dirname(__file__), "..", "fixtures")

N_ASSETS = 30
SEED = 200
START = np.datetime64("2017-01-03")
END = np.datetime64("2021-12-31")


def write_mini(out_dir: str) -> None:
    rows = [
        "date,AAA,BBB",
        "2024-01-01,100,50",
        "2024-01-02,110,50",
        "2024-01-03,99,55",
        "2024-01-04,108.9,44",
    ]
    with open(os.path.join(out_dir, "mini_prices.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")


def write_example_universes(out_dir: str) -> None:
    V = (np.array([[11, 8, 8], [8, 23, -4], [8, -4, 23]]) / 9.0).tolist()
    with open(os.path.join(out_dir, "example3_universe.json"), "w") as fh:
        json.dump({"names": ["A1", "A2", "A3"], "V": V}, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "example3_with_returns.json"), "w") as fh:
        json.dump(
            {
                "names": ["A1", "A2", "A3"],
                "V": V,
                "rbar": [0.06, 0.10, 0.08],
                "r0": 0.01,
            },
            fh,
            indent=2,
        )
        fh.write("\n")


def synthetic_panel(out_dir: str) -> str:
    rng = np.random.default_rng(SEED)
    days = np.arange(START, END + np.timedelta64(1, "D"), dtype="datetime64[D]")
    weekdays = days[np.is_busday(days)]
    n_prices = len(weekdays)
    n_obs = n_prices - 1
    calendar_days = int((weekdays[-1] - weekdays[0]) / np.timedelta64(1, "D"))
    delta = calendar_days / (365.0 * n_obs)

    # annual vols spread across the book; betas on a 16%-vol market factor
    # are deliberately not tied to total vol, otherwise the minimum-variance
    # portfolio shorts the high-vol names and its DR goes negative
    vols = np.linspace(0.23, 0.42, N_ASSETS)
    rng.shuffle(vols)
    beta = rng.uniform(0.6, 1.3, N_ASSETS)
    load = 0.16 * beta
    idio = np.sqrt(vols**2 - load**2)
    # drift increasing in variance, strong enough to survive sample-mean noise
    drift = 0.02 + 2.0 * vols**2 + rng.normal(0.0, 0.01, N_ASSETS)

    sq = np.sqrt(delta)
    f = rng.standard_normal(n_obs)
    eps = rng.standard_normal((n_obs, N_ASSETS))
    rets = delta * drift + sq * (np.outer(f, load) + eps * idio)

    prices = np.empty((n_prices, N_ASSETS))
    prices[0] = 40.0 + 4.0 * np.arange(N_ASSETS)
    for t in range(1, n_prices):
        prices[t] = prices[t - 1] * (1.0 + rets[t - 1])

    names = [f"S{i + 1:02d}" for i in range(N_ASSETS)]
    path = os.path.join(out_dir, "synthetic_panel_30.csv")
    with open(path, "w") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for t in range(n_prices):
            cells = ",".join(f"{p:.8f}" for p in prices[t])
            fh.write(f"{weekdays[t]},{cells}\n")
    return path


def audit(path: str) -> None:
    panel = drf.load_panel(path, format="prices")
    delta = drf.annualization_step(panel)
    universe = drf.annualize(panel)
    kernel = universe.solver
    grid = universe.sigma_grid
    dr_curve = frontiers.sweep(universe, frontiers.FrontierKind.EFFICIENT_DR, grid)
    ef_curve = frontiers.sweep(universe, frontiers.FrontierKind.MV_EFFICIENT_DR, grid)
    md_curve = frontiers.sweep(universe, frontiers.FrontierKind.MDP_AT_SIGMA, grid)
    d_max = drf.analyze_mdp(universe).d_max

    q_dr = np.array([r.q for r in dr_curve.rows])
    q_ef = np.array([r.q for r in ef_curve.rows])
    q_md = np.array([r.q for r in md_curve.rows])
    track = float(np.abs(q_dr - q_md).max())

    print(f"delta            {delta:.6f}  (target 0.003952, rel gap "
          f"{abs(delta - 0.003952) / 0.003952:.3f})")
    print(f"nonsingular      {universe.nonsingular}")
    print(f"q_mvp            {kernel.q_mvp:.6f}  (> 0 required)")
    print(f"eta_wo           {kernel.eta_wo:.6f}  shape {kernel.ef_shape.value}")
    print(f"q_ef at grid end {q_ef[-1]:.6f}  (< 0 required)")
    print(f"min q_ef         {q_ef.min():.6f}")
    print(f"max |q_dr-q_mdp| {track:.6f}  vs 2*d_max {2 * d_max:.6f}")
    print(f"sigma_mvp        {kernel.sigma_mvp:.4f}  sigma_mdrp {kernel.sigma_mdrp:.4f}")
    ok = (
        abs(delta - 0.003952) / 0.003952 <= 0.05
        and universe.nonsingular
        and kernel.q_mvp > 0
        and q_ef[-1] < 0
        and track <= 2 * d_max
    )
    print("fixture audit:", "OK" if ok else "NEEDS TUNING")


def main() -> None:
    os.makedirs(OUT, exist_ok=True)
    write_mini(OUT)
    write_example_universes(OUT)
    path = synthetic_panel(OUT)
    audit(path)


if __name__ == "__main__":
    main()
