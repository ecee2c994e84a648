"""Diversification-return portfolio analytics.

A covariance universe induces a squared-distance matrix between assets whose
geometry makes the diversification return of a budget portfolio a distance
to a fixed center.  This package validates universes, builds the embedding,
computes the closed-form special portfolios and risk frontiers, brackets the
gap to diversification-ratio maximization, and ingests return panels.

Importing the package executes only ``errors``.  Each library module is in
``sys.modules`` from the start but runs on its first import, or on the
first read of ``drfrontier.<module>`` or of a name it exports, so
``import drfrontier.cli`` loads no numpy.
"""

import importlib
import importlib.util
import sys

from .errors import DrFrontierError

__version__ = "0.1.0"

# module -> the public names the package re-exports from it (svg: none)
_EXPORTS = {
    "embedding": (
        "EdmCertificate", "EdmEmbedding", "assert_edm", "build_distance_matrix",
        "embed", "norm_dr_bound",
    ),
    "frontiers": (
        "FrontierCurve", "FrontierKind", "frontier_params", "inflection_report",
        "max_linear_over_ellipsoid", "point", "sweep",
    ),
    "ingest": ("ReturnPanel", "annualization_step", "annualize", "load_panel"),
    "mdp": (
        "DmaxBounds", "MdpAnalysis", "SandwichReport", "analyze_mdp", "build_d_eta",
        "d_max_bounds", "mdp_global", "sandwich_check",
    ),
    "model": (
        "AssetUniverse", "EfShape", "Portfolio", "check_budget", "default_sigma_grid",
        "diversification_return", "portfolio_stats", "validate_universe",
    ),
    "portfolios": (
        "SpecialPortfolios", "q_portfolio", "self_financing_direction",
        "special_portfolios", "tangent_portfolio",
    ),
    "svg": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["DrFrontierError", *_MODULE_OF])

# registered but not executed: code that looks a module up in sys.modules
# (the benchmark's tracer, after `import drfrontier.cli`) finds it there
for _module in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])


def __getattr__(name):
    """drfrontier.<module> or an exported name, from a module executed now,
    so that `from drfrontier import mdp` returns a module that has run.  Only
    modules are kept in the package: an exported name is read from its module
    at each access, so it follows what the module holds (a monkeypatch and
    its undoing included)."""
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if module != name:
        return getattr(value, name)
    globals()[name] = value
    return value
