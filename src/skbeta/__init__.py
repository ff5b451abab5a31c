"""skbeta: grouped skewness/kurtosis analysis, K-S relation fits, rank-size
laws, Beta moment calibration, and a preferential-attachment urn simulator."""

__version__ = "0.1.0"

from .betadist import (
    BetaCalibration, BetaParams, beta_cdf, beta_function, beta_kurtosis, beta_pdf, beta_skewness,
    calibrate_from_sk, help_variable, ln_gamma, urn_limit_pmf, urn_limit_pmfs, yule_simon_pmf,
)
from .ingest import (
    GroupedDataset, ProvinceSummaryRow, load_bundled_province_summary, load_province_summary,
    parse_city_csv,
)
from .ksfit import KSFitResult, fit_power, fit_quadratic, help_variable_from_pq
from .moments import (
    GroupSKResult, MomentSummary, SKPoint, central_moments, detect_outliers, group_sk_points,
    histogram, shape_moments, summarize,
)
from .ranksize import (
    RankFitResult, RankModelSpec, RankVariant, RankedSeries, eval_rank_model, fit_rank_model,
    rank_ascending, rank_fit_to_beta,
)
from .urnsim import SimResult, UrnConfig, empirical_tail_slope, predicted_b, run, tv_distance_to_limit

# the classes and functions imported above (a module is not callable), and the version
__all__ = ["__version__", *(name for name, value in globals().items() if callable(value))]
