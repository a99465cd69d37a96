"""Vulnerability time series over package release histories.

The pipeline: parse an advisory database, fetch or load each affected
package's ordered release history, turn every advisory's version
constraints into bitmasks over the release order, count and binarize
them into a per-package series, and analyse those series with
unconditional probabilities, first-order transition tables, and
autologistic forecasting models.
"""

__version__ = "0.1.0"
