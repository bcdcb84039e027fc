"""Point distribution models for 2D landmark shapes with model-order selection."""

from .errors import (
    DataError,
    DegenerateShape,
    DimensionMismatch,
    NotAligned,
    NumericalError,
    OrderOutOfRange,
    ParseError,
    PdmOrderError,
    SingularSystem,
    TooFewSamples,
    ZeroVariance,
)
from .shapes import (
    AlignmentReport,
    Shape,
    ShapeSet,
    generalized_procrustes,
    load_shape_set,
    mean_shape,
    rmsd,
)
from .pdm import (
    PdmModel,
    clamp_to_box,
    fit_pdm,
    load_pdm,
    project_constrained,
    save_pdm,
    truncate,
)
from .order_select import (
    OrderSelectionResult,
    RegressionFit,
    SplitData,
    aic_score,
    alternating_ml,
    select_order_proposed,
    select_order_variance,
    split_data,
)
from .simgen import (
    make_seed_pdm_procedural,
    noise_variance,
    parse_spectrum,
    sample_shapes,
)
from .evaluation import (
    CellStats,
    LmmseResult,
    TrialSummary,
    lmmse_curve,
    monte_carlo_order,
    order_sweep,
)

__version__ = "0.1.0"
