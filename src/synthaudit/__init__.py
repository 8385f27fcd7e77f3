"""synthaudit: re-identification risk and utility auditing for synthetic tabular data.

The public names below load their home module on first use (PEP 562), so a
process imports only the layers it runs: ``synthaudit.QIConfig`` imports
``synthaudit.config``, which loads no numpy, ``synthaudit.Dataset`` imports
``synthaudit.dataset``, ``synthaudit.run_audit`` every layer.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "audit": "run_audit sweep_epsilon",
    "comparators": "ComparatorKind ComparatorSpec exact_similarity gauss_similarity levenshtein_similarity",
    "config": "AttributeSchema Combine Kind OutlierConfig QIConfig QIRule Role",
    "dataset": "Dataset MissingPolicy load_dataset save_dataset",
    "dp_synth": "NoisyHistogram build_noisy_histogram synthesize",
    "errors": "ConfigError DataError SynthAuditError",
    "linkage": "LinkageResult ScoredPair attack filter_matches score_pairs",
    "outliers": "OutlierSet detect_outliers",
    "utility": (
        "UtilityReport attribute_coverage boundary_adherence category_coverage compute_utility "
        "range_coverage statistic_similarity"
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
