"""Vulnerability time series over package release histories.

The pipeline: parse an advisory database, fetch or load each affected
package's ordered release history, turn every advisory's version
constraints into bitmasks over the release order, count and binarize
them into a per-package series, and analyse those series with
unconditional probabilities, first-order transition tables, and
autologistic forecasting models.
"""

from .errors import (
    AttritionRecord,
    ClauseInvalidError,
    DatabaseLoadError,
    EstimationError,
    ForecastError,
    InsufficientDataError,
    NotEligibleError,
    OfflineCacheMissError,
    OrderSelectionError,
    PackageNotFoundError,
    PayloadFormatError,
    RegistryError,
    SeparationError,
    SingularModelError,
    SnapshotError,
    SnapshotNotFoundError,
    SnapshotSchemaError,
    SpecSyntaxError,
    TransportError,
    VersionParseError,
    VulnseriesError,
)
from .versions import Version, canonical_string, compare, parse_version
from .safetydb import (
    Advisory,
    Constraint,
    DatabaseLoadResult,
    SpecClause,
    load_database,
    load_database_path,
    parse_spec,
)
from .registry import (
    PyPIClient,
    Release,
    ReleaseHistory,
    load_snapshot,
    normalize_name,
    order_history,
    save_snapshot,
)
from .vectorize import (
    AttritionReport,
    BinarySeries,
    Corpus,
    aggregate,
    bits,
    build_corpus,
    corpus_rows,
    fill_clause,
    fill_constraint,
)
from .markov import (
    CorpusSummary,
    corpus_summary,
    transition_probabilities,
    transition_table,
    unconditional_probability,
)
from .autologistic import (
    PARSIMONY_MARGIN,
    Eligibility,
    ForecastReport,
    HorizonSummary,
    LagDesign,
    ModelFit,
    OrderSelection,
    build_lag_design,
    eligibility,
    experiment_summary,
    fit,
    forecast,
    naive_baseline,
    run_experiment,
    select_order,
    simulate,
    threshold_accuracy,
)

__version__ = "0.1.0"
