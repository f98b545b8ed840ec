"""equity_audit: access/outcome/utilization auditing for decision pipelines
whose predictions are evaluated later, by a different model.

The package measures how a deployed decision model and the evaluation
model behind it treat people who face unequal barriers: who can present
their full features (access), whether error rates line up across groups
(outcomes), whether accepted individuals are confirmed by the downstream
evaluation (utilization), how far apart the two models' features and
importances sit (proxy gaps), and what happens over repeated rounds when
only accepted individuals feed the next training set.
"""

__version__ = "0.1.0"

from .core import (
    ObstacleModel,
    Policy,
    Population,
    dominates,
    reveal_population,
)
from .errors import (
    DataFormatError,
    DominanceError,
    EquityAuditError,
    JoinError,
    NoPositivesError,
    SingleClassError,
    UndefinedRateError,
    ValidationError,
)
from .learner import (
    ModelSpec,
    TrainedModel,
    predict,
    predict_proba,
    train,
)
from .metrics import (
    AccessReport,
    EquityReport,
    EvaluationRecord,
    GapReport,
    ObstacleGap,
    OutcomeReport,
    UtilizationReport,
    audit_reports,
    compute_gap_report,
    eo_violation,
    equity_score,
    feature_proxy_gap,
    label_proxy_gap,
    match_features,
    model_access,
    obstacle_gap,
    utilization,
    utilization_from_labels,
)
from .scoring import (
    CandidateSampler,
    ModelSpace,
    ScoringTrace,
    run_equity_scoring,
)
from .loopsim import (
    CuratedDataset,
    LoopTrajectory,
    SyntheticConfig,
    curate_ground_truth,
    default_config,
    generate_cohort,
    run_inequity_loop,
)

__all__ = [name for name in dir() if not name.startswith("_")]
