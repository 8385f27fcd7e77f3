"""Multi-variant audit orchestration.

An audit plan names one original dataset and any number of synthetic
variants (external files or parameters for the built-in generator). For
every variant the runner computes utility metrics once and runs the linkage
attack once per QI subset in the ladder. Each layer computes its share of
the original (outlier targets, histogram counts per ``num_bins``, utility
reference) once per dataset object, so every variant reuses it. Every
audit leaves its trail under the plan's output directory: the original's
outlier listing, each generated variant and one pair file per variant and
subset. A data or configuration error on one variant is recorded in its
report entry and does not abort the others; any other exception is a bug
and ends the run. Variants run one after another in plan order, so reports
are reproducible byte for byte (only the run_meta keys in
``report.VOLATILE_RUN_META_KEYS`` vary).
"""

from __future__ import annotations

import logging
import time
from pathlib import Path

from .config import SynthSettings, VariantSpec, check_ladder
from .dataset import AttributeSchema, Dataset, load_dataset, save_dataset
from .dp_synth import DEFAULT_NUM_BINS, generator_metadata, synthesize
from .errors import ConfigError, Record, SynthAuditError
from .linkage import LinkageResult, QIConfig, attack, save_matches
from .outliers import OutlierConfig, detect_outliers, save_outlier_set
from .utility import compute_utility

logger = logging.getLogger(__name__)


class AuditPlan(Record):
    __slots__ = {
        "original_path": "Path", "schema": "tuple[AttributeSchema, ...]", "outlier_cfg": "OutlierConfig",
        "qi_cfg": "QIConfig", "variants": "tuple[VariantSpec, ...]", "ladder": "tuple[tuple[str, ...], ...]",
        "output_dir": "Path", "synth_defaults": "SynthSettings | None", "restrict_variant_outliers": "bool",
        "base_dir": "Path: the anchor for relative variant file paths",
        "_subsets": "tuple[QIConfig, ...]: each ladder subset's QI config, in ladder order",
    }
    _defaults = {"synth_defaults": None, "restrict_variant_outliers": False, "base_dir": Path(".")}

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigError("audit plan needs at least one variant")
        if not self.ladder:
            raise ConfigError("audit plan needs at least one QI subset in the ladder")
        object.__setattr__(self, "_subsets", check_ladder(self.qi_cfg, self.ladder))
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variant names in audit plan")
        writers: dict[Path, str] = {}
        for name in names:  # names become file names under output_dir
            if name in ("", ".", "..") or "/" in name or "\\" in name:
                raise ConfigError(f"variant name {name!r} must be a file name: not '', '.' or '..', no '/' or '\\'")
            for subset in self.ladder:
                path = _pair_file(name, subset)
                writer = f"variant {name!r} subset {','.join(subset)!r}"
                if path in writers:
                    raise ConfigError(f"{writers[path]} and {writer} would both write {path.as_posix()}")
                writers[path] = writer


def _pair_file(variant: str, subset: tuple[str, ...]) -> Path:
    """The pair file of one variant and ladder subset, relative to the output directory."""
    return Path("pairs", f"{variant}__{'-'.join(subset)}.csv")


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


def _resolve_variant(plan: AuditPlan, spec: VariantSpec, original: Dataset) -> tuple[Dataset, dict]:
    if spec.file is not None:
        path = plan.base_dir / spec.file  # an absolute file stays as it is
        ds = load_dataset(path, plan.schema)
        generator = {"type": "file", "path": str(path), "sha256": _sha256_file(path)}
    else:
        defaults = plan.synth_defaults or SynthSettings(epsilon=spec.epsilon, n=original.row_count)
        n = spec.n if spec.n is not None else defaults.n
        num_bins = spec.num_bins if spec.num_bins is not None else defaults.num_bins
        seed = spec.seed if spec.seed is not None else defaults.seed
        ds = synthesize(original, spec.epsilon, n, num_bins, seed)
        generator = generator_metadata(plan.schema, spec.epsilon, n, num_bins, seed)
    if spec.tags:
        generator["tags"] = dict(spec.tags)
    return ds, generator


def _audit_one_variant(plan: AuditPlan, spec: VariantSpec, original: Dataset) -> dict:
    try:
        variant, generator = _resolve_variant(plan, spec, original)
        # outputs are recorded relative to output_dir so reports stay
        # portable and identical runs produce identical bytes
        if spec.generated:
            generator["path"] = str(Path("variants", f"{spec.name}.csv"))
            save_dataset(variant, plan.output_dir / generator["path"])
        entry: dict = {
            "name": spec.name,
            "status": "ok",
            "generator": generator,
            "utility": compute_utility(original, variant).to_dict(),
            "linkage": {},
        }
        for subset, qi_cfg in zip(plan.ladder, plan._subsets):
            result = attack(
                original,
                variant,
                plan.outlier_cfg,
                qi_cfg,
                restrict_variant_outliers=plan.restrict_variant_outliers,
            )
            pair_path = _pair_file(spec.name, subset)
            save_matches(result, plan.output_dir / pair_path)
            entry["linkage"][",".join(subset)] = {**_linkage_summary(result), "pairs_file": str(pair_path)}
        return entry
    except SynthAuditError as exc:  # isolate bad variant inputs; a bug propagates
        logger.warning("variant %s failed: %s", spec.name, exc)
        return {"name": spec.name, "status": "failed", "error": str(exc)}


def run_audit(plan: AuditPlan) -> dict:
    """Audit every variant in the plan against the original; return the report.

    The report holds ``run_meta`` and, under ``variants``, one entry per
    variant in plan order. Writes the audit trail under ``plan.output_dir``:
    ``outliers.csv`` (the original's outlier listing), ``variants/<name>.csv``
    for each generated variant and ``pairs/<name>__<subset>.csv`` for each
    variant and ladder subset. A variant that fails with a data or
    configuration error gets a ``failed`` entry; an unreadable original
    raises ``DataError``.
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
    return {"run_meta": run_meta, "variants": entries}


def _spread(values: list) -> dict:
    return {"mean": sum(values) / len(values), "min": min(values), "max": max(values)}


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
) -> dict:
    """Generate and audit repeats x |grid| variants; return the report with its curve.

    Variant index i (epsilon-major over the ascending grid) uses seed
    base_seed + i. Each epsilon's ``sweep_curve`` row, built right after its
    repeats, gives the mean, min and max of their unique-match counts and of
    each utility metric's mean; rows are sorted by epsilon ascending. Each
    layer computes its share of the original once, for every variant. A grid
    that lists an epsilon twice is refused.
    """
    if not grid:
        raise ConfigError("epsilon grid must not be empty")
    if len(set(grid)) != len(grid):
        raise ConfigError(f"epsilon grid lists an epsilon more than once: {list(grid)}")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    started = time.time()
    rows = n if n is not None else original.row_count
    subset = ",".join(qi_cfg.names())
    entries = []
    curve = []
    for epsilon in sorted(grid):
        for _ in range(repeats):
            seed = base_seed + len(entries)
            variant = synthesize(original, epsilon, rows, num_bins, seed)
            result = attack(original, variant, outlier_cfg, qi_cfg)
            entries.append(
                {
                    "name": f"eps{epsilon!r}_seed{seed}",
                    "status": "ok",
                    "generator": generator_metadata(original.schema, epsilon, rows, num_bins, seed),
                    "utility": compute_utility(original, variant).to_dict(),
                    "linkage": {subset: _linkage_summary(result)},
                }
            )
        group = entries[-repeats:]
        metrics = [e["utility"]["aggregate"] for e in group]
        curve.append(
            {
                "epsilon": epsilon,
                "repeats": len(group),
                "unique_matches": _spread([e["linkage"][subset]["unique_matches"] for e in group]),
                "utility": {m: _spread([agg[m]["mean"] for agg in metrics]) for m in metrics[0]},
            }
        )

    run_meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_time_s": time.time() - started,
        "grid": sorted(grid),
        "repeats": repeats,
        "base_seed": base_seed,
    }
    return {"run_meta": run_meta, "variants": entries, "sweep_curve": curve}
