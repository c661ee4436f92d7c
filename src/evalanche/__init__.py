"""evalanche: multiple hypothesis testing with merged test martingales.

Evidence against each of K null hypotheses accumulates in K uncorrelated
test martingales; normalized elementary symmetric polynomials and their
convex mixtures merge them into a single anytime-valid measure.  The
discovery diagonal, subdiagonal, and discovery matrix turn the merged
evidence into confidence statements about how many of the top-ranked
rejections are justified, and the simulation harness reproduces the
Gaussian study behind them with bit-level determinism.
"""

__version__ = "0.1.0"

from .errors import (
    AsymmetricPolynomialError,
    DomainError,
    EvalancheError,
    NumericalError,
)
from .logvalue import LogValue, ZERO, ONE, INFINITE
from .merging import (
    MergeSpec,
    U1,
    U2,
    U1_U2_HALF,
    ie_example_f,
    mixture_merge,
    nesp_log,
)
from .polynomials import (
    MultiaffinePoly,
    PolyVerdict,
    decompose_symmetric,
    merging_polynomial,
    validate_merging_polynomial,
)
from .martingales import (
    MartingaleTable,
    RankedValues,
    lr_increment,
    rank,
    step,
)
from .discovery import (
    ConfidenceRegion,
    DiagonalSeries,
    DiscoveryMatrix,
    confidence_region,
    diagonal_row,
    discovery_matrix,
    regularize,
    subdiagonal_row,
)
from .oracles import CONSTRAINT_EXACTLY_J_MISSING, CONSTRAINT_GE2_IN_TOP_R, CONSTRAINT_INTERSECTS_TOP_R
from .oracles import brute_force_bound, nesp_bell, nesp_enumerate, nesp_powersum
from .simulate import (
    ExperimentConfig,
    RunResult,
    SeedSummary,
    paper_experiment_config,
    replicate,
    run_experiment,
)
from .formats import ColorBucket, colorize

__all__ = [
    "AsymmetricPolynomialError",
    "ColorBucket",
    "ConfidenceRegion",
    "CONSTRAINT_EXACTLY_J_MISSING",
    "CONSTRAINT_GE2_IN_TOP_R",
    "CONSTRAINT_INTERSECTS_TOP_R",
    "DiagonalSeries",
    "DiscoveryMatrix",
    "DomainError",
    "EvalancheError",
    "ExperimentConfig",
    "INFINITE",
    "LogValue",
    "MartingaleTable",
    "MergeSpec",
    "MultiaffinePoly",
    "NumericalError",
    "ONE",
    "PolyVerdict",
    "RankedValues",
    "RunResult",
    "SeedSummary",
    "U1",
    "U1_U2_HALF",
    "U2",
    "ZERO",
    "brute_force_bound",
    "colorize",
    "confidence_region",
    "decompose_symmetric",
    "diagonal_row",
    "discovery_matrix",
    "ie_example_f",
    "lr_increment",
    "merging_polynomial",
    "mixture_merge",
    "nesp_bell",
    "nesp_enumerate",
    "nesp_log",
    "nesp_powersum",
    "paper_experiment_config",
    "rank",
    "regularize",
    "replicate",
    "run_experiment",
    "step",
    "subdiagonal_row",
    "validate_merging_polynomial",
]
