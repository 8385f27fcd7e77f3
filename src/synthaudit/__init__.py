"""synthaudit: re-identification risk and utility auditing for synthetic tabular data."""

from .comparators import (
    ComparatorKind,
    ComparatorSpec,
    exact_similarity,
    gauss_similarity,
    levenshtein_similarity,
)
from .dataset import (
    AttributeSchema,
    Dataset,
    Kind,
    MissingPolicy,
    Role,
    load_dataset,
    save_dataset,
)
from .dp_synth import NoisyHistogram, PrivacyBudget, build_noisy_histogram, synthesize
from .errors import ConfigError, DataError, SynthAuditError
from .linkage import (
    LinkageResult,
    QIConfig,
    QIRule,
    ScoredPair,
    attack,
    filter_matches,
    score_pairs,
)
from .outliers import Combine, OutlierConfig, OutlierSet, detect_outliers
from .utility import (
    UtilityReport,
    attribute_coverage,
    boundary_adherence,
    category_coverage,
    compute_utility,
    range_coverage,
    statistic_similarity,
)
from .audit import AuditPlan, AuditReport, run_audit, sweep_epsilon

__version__ = "0.1.0"

__all__ = [
    "AttributeSchema",
    "AuditPlan",
    "AuditReport",
    "Combine",
    "ComparatorKind",
    "ComparatorSpec",
    "ConfigError",
    "DataError",
    "Dataset",
    "Kind",
    "LinkageResult",
    "MissingPolicy",
    "NoisyHistogram",
    "OutlierConfig",
    "OutlierSet",
    "PrivacyBudget",
    "QIConfig",
    "QIRule",
    "Role",
    "ScoredPair",
    "SynthAuditError",
    "UtilityReport",
    "attack",
    "attribute_coverage",
    "boundary_adherence",
    "build_noisy_histogram",
    "category_coverage",
    "compute_utility",
    "detect_outliers",
    "exact_similarity",
    "filter_matches",
    "gauss_similarity",
    "levenshtein_similarity",
    "load_dataset",
    "range_coverage",
    "run_audit",
    "save_dataset",
    "score_pairs",
    "statistic_similarity",
    "sweep_epsilon",
    "synthesize",
]
