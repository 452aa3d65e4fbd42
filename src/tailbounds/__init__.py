"""tailbounds: moment-based concentration bounds, which take their
hypotheses (strong negative correlation, conditional moment bounds) as
given, plus a Monte Carlo verification harness over six combinatorial test
beds (tours, spanning trees, chromatic numbers, random projections, bin
packing, and longest increasing subsequences)."""

from . import bounds, euclid, graphs, packing, pointproc, seq

__all__ = ["bounds", "euclid", "graphs", "packing", "pointproc", "seq"]

__version__ = "0.1.0"
