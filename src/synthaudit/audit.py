"""Multi-variant audit orchestration.

An audit plan names one original dataset and any number of synthetic
variants (external files or parameters for the built-in generator). For
every variant the runner computes utility metrics once and runs the linkage
attack once per QI subset in the ladder. Each layer computes its share of
the original (outlier targets, histogram counts per ``num_bins``, utility
reference) once per dataset object, so every variant reuses it. Every
audit leaves its trail under the plan's output directory: the original's
outlier listing, each generated variant and one pair file per variant and
subset. A data or
configuration error on one variant is recorded in its report entry and
does not abort the others; any other exception is a bug and ends the run.
Variants run one after another in plan order, so reports are reproducible
byte for byte (only the run_meta keys in ``report.VOLATILE_RUN_META_KEYS``
vary).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

from .config import SynthSettings, VariantSpec
from .dataset import AttributeSchema, Dataset, load_dataset, save_dataset
from .dp_synth import DEFAULT_NUM_BINS, generator_metadata, synthesize
from .errors import ConfigError, SynthAuditError
from .linkage import LinkageResult, QIConfig, attack, save_matches
from .outliers import OutlierConfig, detect_outliers, save_outlier_set
from .utility import compute_utility

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AuditPlan:
    original_path: Path
    schema: tuple[AttributeSchema, ...]
    outlier_cfg: OutlierConfig
    qi_cfg: QIConfig
    variants: tuple[VariantSpec, ...]
    ladder: tuple[tuple[str, ...], ...]
    output_dir: Path
    synth_defaults: SynthSettings | None = None
    restrict_variant_outliers: bool = False
    base_dir: Path = Path(".")  # anchor for relative variant file paths

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigError("audit plan needs at least one variant")
        if not self.ladder:
            raise ConfigError("audit plan needs at least one QI subset in the ladder")
        for subset in self.ladder:
            self.qi_cfg.subset(subset)
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variant names in audit plan")


@dataclass
class AuditReport:
    run_meta: dict
    variants: list[dict]
    sweep_curve: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {"run_meta": self.run_meta, "variants": self.variants}
        if self.sweep_curve:
            out["sweep_curve"] = self.sweep_curve
        return out


def _sha256_file(path: Path) -> str:
    import hashlib  # loads OpenSSL, which only hashing commands need

    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _linkage_summary(result: LinkageResult) -> dict:
    return {
        "possible_matches": len(result.original),
        "distinct_originals": result.distinct_original_count,
        "unique_matches": result.unique_match_count,
        "targets": result.attack_surface[0],
        "variant_rows": result.attack_surface[1],
        "per_original": {str(k): v for k, v in result.per_original_match_count.items()},
    }


def _resolve_variant(
    plan: AuditPlan, spec: VariantSpec, original: Dataset
) -> tuple[Dataset, dict]:
    if spec.file is not None:
        path = Path(spec.file)
        if not path.is_absolute():
            path = plan.base_dir / path
        ds = load_dataset(path, plan.schema)
        generator = {"type": "file", "path": str(path), "sha256": _sha256_file(path)}
        if spec.tags:
            generator["tags"] = dict(spec.tags)
        return ds, generator
    defaults = plan.synth_defaults or SynthSettings(epsilon=spec.epsilon, n=original.row_count)
    epsilon = spec.epsilon
    n = spec.n if spec.n is not None else defaults.n
    num_bins = spec.num_bins if spec.num_bins is not None else defaults.num_bins
    seed = spec.seed if spec.seed is not None else defaults.seed
    ds = synthesize(original, epsilon, n, num_bins, seed)
    generator = generator_metadata(plan.schema, epsilon, n, num_bins, seed)
    if spec.tags:
        generator["tags"] = dict(spec.tags)
    return ds, generator


def _audit_one_variant(plan: AuditPlan, spec: VariantSpec, original: Dataset) -> dict:
    try:
        variant, generator = _resolve_variant(plan, spec, original)
        if spec.generated:
            out_path = plan.output_dir / "variants" / f"{spec.name}.csv"
            save_dataset(variant, out_path)
            # outputs are recorded relative to output_dir so reports stay
            # portable and identical runs produce identical bytes
            generator["path"] = str(out_path.relative_to(plan.output_dir))
        entry: dict = {
            "name": spec.name,
            "status": "ok",
            "generator": generator,
            "utility": compute_utility(original, variant).to_dict(),
            "linkage": {},
        }
        for subset in plan.ladder:
            result = attack(
                original,
                variant,
                plan.outlier_cfg,
                plan.qi_cfg,
                qi_subset=subset,
                restrict_variant_outliers=plan.restrict_variant_outliers,
            )
            key = ",".join(subset)
            entry["linkage"][key] = _linkage_summary(result)
            pair_path = plan.output_dir / "pairs" / f"{spec.name}__{'-'.join(subset)}.csv"
            save_matches(result, pair_path)
            entry["linkage"][key]["pairs_file"] = str(pair_path.relative_to(plan.output_dir))
        return entry
    except SynthAuditError as exc:  # isolate bad variant inputs; a bug propagates
        logger.warning("variant %s failed: %s", spec.name, exc)
        return {"name": spec.name, "status": "failed", "error": str(exc)}


def run_audit(plan: AuditPlan) -> AuditReport:
    """Audit every variant in the plan against the original.

    Writes the audit trail under ``plan.output_dir``: ``outliers.csv`` (the
    original's outlier listing), ``variants/<name>.csv`` for each generated
    variant and ``pairs/<name>__<subset>.csv`` for each variant and ladder
    subset. A variant that fails with a data or configuration error gets a
    ``failed`` entry; an unreadable original raises ``DataError``.
    """
    started = time.time()
    original = load_dataset(plan.original_path, plan.schema)
    targets = detect_outliers(original, plan.outlier_cfg)
    save_outlier_set(targets, plan.outlier_cfg, plan.output_dir / "outliers.csv")
    entries = [_audit_one_variant(plan, spec, original) for spec in plan.variants]

    run_meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_time_s": time.time() - started,
        "original": {
            "path": str(plan.original_path),
            "sha256": _sha256_file(plan.original_path),
            "row_count": original.row_count,
        },
        "outliers": {
            "count": len(targets),
            "k": plan.outlier_cfg.k,
            "combine": plan.outlier_cfg.combine.value,
            "attributes": list(plan.outlier_cfg.attributes),
        },
        "ladder": [",".join(subset) for subset in plan.ladder],
    }
    return AuditReport(run_meta=run_meta, variants=entries)


def sweep_epsilon(
    original: Dataset,
    grid: tuple[float, ...],
    repeats: int,
    base_seed: int,
    outlier_cfg: OutlierConfig,
    qi_cfg: QIConfig,
    *,
    n: int | None = None,
    num_bins: int = DEFAULT_NUM_BINS,
) -> AuditReport:
    """Generate and audit repeats x |grid| variants; emit tradeoff-curve rows.

    Variant index i (epsilon-major over the ascending grid) uses seed
    base_seed + i. Curve rows aggregate unique-match counts and per-metric
    utility means per epsilon, sorted by epsilon ascending. Each layer
    computes its share of the original once, for every variant. A grid that
    lists an epsilon twice is refused.
    """
    if not grid:
        raise ConfigError("epsilon grid must not be empty")
    if len(set(grid)) != len(grid):
        raise ConfigError(f"epsilon grid lists an epsilon more than once: {list(grid)}")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    started = time.time()
    rows = n if n is not None else original.row_count
    entries = []
    index = 0
    for epsilon in sorted(grid):
        for _ in range(repeats):
            seed = base_seed + index
            variant = synthesize(original, epsilon, rows, num_bins, seed)
            result = attack(original, variant, outlier_cfg, qi_cfg)
            utility = compute_utility(original, variant)
            entries.append(
                {
                    "name": f"eps{epsilon!r}_seed{seed}",
                    "status": "ok",
                    "generator": generator_metadata(original.schema, epsilon, rows, num_bins, seed),
                    "utility": utility.to_dict(),
                    "linkage": {",".join(qi_cfg.names()): _linkage_summary(result)},
                }
            )
            index += 1

    curve = []
    for epsilon in sorted(grid):
        group = [e for e in entries if e["generator"]["epsilon"] == epsilon]
        uniques = [next(iter(e["linkage"].values()))["unique_matches"] for e in group]
        row: dict = {
            "epsilon": epsilon,
            "repeats": len(group),
            "unique_matches": {
                "mean": sum(uniques) / len(uniques),
                "min": min(uniques),
                "max": max(uniques),
            },
            "utility": {},
        }
        metric_names = group[0]["utility"]["aggregate"].keys()
        for metric in metric_names:
            means = [e["utility"]["aggregate"][metric]["mean"] for e in group]
            row["utility"][metric] = {
                "mean": sum(means) / len(means),
                "min": min(means),
                "max": max(means),
            }
        curve.append(row)

    run_meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_time_s": time.time() - started,
        "grid": sorted(grid),
        "repeats": repeats,
        "base_seed": base_seed,
    }
    return AuditReport(run_meta=run_meta, variants=entries, sweep_curve=curve)
