"""On-disk run configuration: a flat, commented key/value section format.

Parsing is strict: unknown sections or keys are errors, so a typo cannot
silently weaken privacy parameters. The canonical rendering produced by
:func:`render_config` re-parses to an equivalent RunConfig and is what gets
hashed and echoed into run reports.

Sections::

    [schema]            attribute = <numerical|categorical> [qi]
    [outliers]          k, attributes, combine, stddev
    [qi <attribute>]    comparator, offset, scale, threshold
    [synth]             epsilon, n, num_bins, seed
    [paths]             original, output_dir
    [attack]            ladder, blocking, restrict_variant_outliers
    [variant <name>]    file   -or-   epsilon, seed, n, num_bins
    [sweep]             grid, repeats, base_seed
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

from .comparators import ComparatorKind, ComparatorSpec
from .dataset import AttributeSchema, Kind, Role, validate_schema
from .errors import ConfigError
from .linkage import QIConfig, QIRule, validate_blocking
from .outliers import Combine, OutlierConfig

_OUTLIER_KEYS = {"k", "attributes", "combine", "stddev"}
_QI_KEYS = {"comparator", "offset", "scale", "threshold"}
_SYNTH_KEYS = {"epsilon", "n", "num_bins", "seed"}
_PATH_KEYS = {"original", "output_dir"}
_ATTACK_KEYS = {"ladder", "blocking", "restrict_variant_outliers"}
_VARIANT_KEYS = {"file", "epsilon", "seed", "n", "num_bins", "tags"}
_SWEEP_KEYS = {"grid", "repeats", "base_seed"}


@dataclass(frozen=True)
class SynthSettings:
    epsilon: float
    n: int
    num_bins: int = 32
    seed: int = 0


@dataclass(frozen=True)
class SweepSettings:
    grid: tuple[float, ...]
    repeats: int = 1
    base_seed: int = 0


@dataclass(frozen=True)
class VariantSpec:
    """A variant to audit: an external file, or parameters to generate one.

    ``tags`` carries free-form hyperparameter labels for externally
    generated files (for example ``epochs=150``), echoed into the report so
    curves over foreign hyperparameters can be assembled from audit output.
    """

    name: str
    file: str | None = None
    epsilon: float | None = None
    seed: int | None = None
    n: int | None = None
    num_bins: int | None = None
    tags: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.file is None and self.epsilon is None:
            raise ConfigError(f"variant {self.name!r} needs either a file or an epsilon")

    @property
    def generated(self) -> bool:
        return self.file is None


@dataclass(frozen=True)
class RunConfig:
    schema: tuple[AttributeSchema, ...]
    outliers: OutlierConfig | None = None
    qi: QIConfig | None = None
    synth: SynthSettings | None = None
    original: str | None = None
    output_dir: str | None = None
    ladder: tuple[tuple[str, ...], ...] = ()
    blocking: str | None = None
    restrict_variant_outliers: bool = False
    variants: tuple[VariantSpec, ...] = ()
    sweep: SweepSettings | None = None


def _fail(section: str, key: str, value: str, expected: str) -> ConfigError:
    return ConfigError(f"[{section}] {key} = {value!r}: expected {expected}")


def _as_float(section: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise _fail(section, key, value, "a number") from None


def _as_int(section: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise _fail(section, key, value, "an integer") from None


def _as_bool(section: str, key: str, value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise _fail(section, key, value, "true or false")


def _check_keys(section: str, present, allowed: set[str]) -> None:
    unknown = sorted(set(present) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {unknown}")


def _parse_schema(section: configparser.SectionProxy) -> tuple[AttributeSchema, ...]:
    attrs = []
    for name, value in section.items():
        tokens = value.split()
        if not tokens or tokens[0] not in ("numerical", "categorical"):
            raise _fail("schema", name, value, "'numerical' or 'categorical', optionally 'qi'")
        kind = Kind.NUMERICAL if tokens[0] == "numerical" else Kind.CATEGORICAL
        role = Role.NON_QI
        if len(tokens) == 2:
            if tokens[1] != "qi":
                raise _fail("schema", name, value, "'qi' as the only flag")
            role = Role.QI
        elif len(tokens) > 2:
            raise _fail("schema", name, value, "at most two tokens")
        attrs.append(AttributeSchema(name=name, kind=kind, role=role))
    schema = tuple(attrs)
    validate_schema(schema)
    return schema


def _schema_attr(schema: tuple[AttributeSchema, ...], name: str) -> AttributeSchema:
    for attr in schema:
        if attr.name == name:
            return attr
    raise ConfigError(f"attribute {name!r} is not declared in [schema]")


def _parse_outliers(section, schema) -> OutlierConfig:
    _check_keys("outliers", section.keys(), _OUTLIER_KEYS)
    if "k" not in section or "attributes" not in section:
        raise ConfigError("[outliers] requires both 'k' and 'attributes'")
    attributes = tuple(section["attributes"].split())
    for name in attributes:
        attr = _schema_attr(schema, name)
        if attr.kind is not Kind.NUMERICAL:
            raise ConfigError(f"[outliers] attribute {name!r} is not numerical")
        if attr.role is not Role.QI:
            raise ConfigError(f"[outliers] attribute {name!r} is not a QI")
    combine = Combine.ANY
    if "combine" in section:
        try:
            combine = Combine(section["combine"].strip().lower())
        except ValueError:
            raise _fail("outliers", "combine", section["combine"], "'any' or 'all'") from None
    ddof = 0
    if "stddev" in section:
        conv = section["stddev"].strip().lower()
        if conv not in ("population", "sample"):
            raise _fail("outliers", "stddev", section["stddev"], "'population' or 'sample'")
        ddof = 0 if conv == "population" else 1
    return OutlierConfig(
        k=_as_float("outliers", "k", section["k"]),
        attributes=attributes,
        combine=combine,
        ddof=ddof,
    )


def _parse_qi_rule(attr_name: str, section, schema) -> QIRule:
    section_name = f"qi {attr_name}"
    _check_keys(section_name, section.keys(), _QI_KEYS)
    attr = _schema_attr(schema, attr_name)
    if attr.role is not Role.QI:
        raise ConfigError(f"[{section_name}]: {attr_name!r} is not marked 'qi' in [schema]")
    if "comparator" not in section:
        raise ConfigError(f"[{section_name}] requires 'comparator'")
    try:
        kind = ComparatorKind(section["comparator"].strip().lower())
    except ValueError:
        raise _fail(section_name, "comparator", section["comparator"], "gauss, levenshtein or exact") from None
    if kind is ComparatorKind.GAUSS and attr.kind is not Kind.NUMERICAL:
        raise ConfigError(f"[{section_name}]: gauss comparator on a categorical attribute")
    if kind is not ComparatorKind.GAUSS and attr.kind is not Kind.CATEGORICAL:
        raise ConfigError(f"[{section_name}]: {kind.value} comparator on a numeric attribute")
    offset = _as_float(section_name, "offset", section["offset"]) if "offset" in section else None
    scale = _as_float(section_name, "scale", section["scale"]) if "scale" in section else None
    threshold = (
        _as_float(section_name, "threshold", section["threshold"])
        if "threshold" in section
        else None
    )
    return QIRule(
        name=attr_name,
        comparator=ComparatorSpec(kind=kind, offset=offset, scale=scale),
        threshold=threshold,
    )


def _parse_synth(section) -> SynthSettings:
    _check_keys("synth", section.keys(), _SYNTH_KEYS)
    if "epsilon" not in section or "n" not in section:
        raise ConfigError("[synth] requires both 'epsilon' and 'n'")
    return SynthSettings(
        epsilon=_as_float("synth", "epsilon", section["epsilon"]),
        n=_as_int("synth", "n", section["n"]),
        num_bins=_as_int("synth", "num_bins", section["num_bins"]) if "num_bins" in section else 32,
        seed=_as_int("synth", "seed", section["seed"]) if "seed" in section else 0,
    )


def _parse_ladder(value: str, qi: QIConfig) -> tuple[tuple[str, ...], ...]:
    subsets = []
    for part in value.split("|"):
        names = tuple(part.split())
        if not names:
            raise ConfigError("[attack] ladder contains an empty QI subset")
        qi.subset(names)  # raises on unknown names
        subsets.append(names)
    return tuple(subsets)


def _parse_tags(section_name: str, value: str) -> tuple[tuple[str, str], ...]:
    tags = []
    for token in value.split():
        if "=" not in token:
            raise _fail(section_name, "tags", value, "space-separated key=value pairs")
        key, _, val = token.partition("=")
        tags.append((key, val))
    return tuple(tags)


def _parse_variant(name: str, section) -> VariantSpec:
    section_name = f"variant {name}"
    _check_keys(section_name, section.keys(), _VARIANT_KEYS)
    tags = _parse_tags(section_name, section["tags"]) if "tags" in section else ()
    if "file" in section:
        extra = sorted(set(section.keys()) - {"file", "tags"})
        if extra:
            raise ConfigError(f"[{section_name}] mixes 'file' with generator keys {extra}")
        return VariantSpec(name=name, file=section["file"].strip(), tags=tags)
    if "epsilon" not in section:
        raise ConfigError(f"[{section_name}] needs either 'file' or 'epsilon'")
    return VariantSpec(
        name=name,
        epsilon=_as_float(section_name, "epsilon", section["epsilon"]),
        seed=_as_int(section_name, "seed", section["seed"]) if "seed" in section else None,
        n=_as_int(section_name, "n", section["n"]) if "n" in section else None,
        num_bins=_as_int(section_name, "num_bins", section["num_bins"]) if "num_bins" in section else None,
        tags=tags,
    )


def _parse_sweep(section) -> SweepSettings:
    _check_keys("sweep", section.keys(), _SWEEP_KEYS)
    if "grid" not in section:
        raise ConfigError("[sweep] requires 'grid'")
    grid = tuple(_as_float("sweep", "grid", tok) for tok in section["grid"].split())
    if not grid:
        raise ConfigError("[sweep] grid is empty")
    return SweepSettings(
        grid=grid,
        repeats=_as_int("sweep", "repeats", section["repeats"]) if "repeats" in section else 1,
        base_seed=_as_int("sweep", "base_seed", section["base_seed"]) if "base_seed" in section else 0,
    )


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # attribute names are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    if "schema" not in parser:
        raise ConfigError("config requires a [schema] section")
    schema = _parse_schema(parser["schema"])

    known = {"schema", "outliers", "synth", "paths", "attack", "sweep"}
    qi_rules: list[QIRule] = []
    variants: list[VariantSpec] = []
    for section in parser.sections():
        if section in known:
            continue
        if section.startswith("qi "):
            qi_rules.append(_parse_qi_rule(section.split(" ", 1)[1], parser[section], schema))
        elif section.startswith("variant "):
            variants.append(_parse_variant(section.split(" ", 1)[1], parser[section]))
        else:
            raise ConfigError(f"unknown section [{section}]")

    qi = QIConfig(rules=tuple(qi_rules)) if qi_rules else None
    outliers = _parse_outliers(parser["outliers"], schema) if "outliers" in parser else None
    synth = _parse_synth(parser["synth"]) if "synth" in parser else None
    sweep = _parse_sweep(parser["sweep"]) if "sweep" in parser else None

    original = None
    output_dir = None
    if "paths" in parser:
        _check_keys("paths", parser["paths"].keys(), _PATH_KEYS)
        original = parser["paths"].get("original")
        output_dir = parser["paths"].get("output_dir")

    ladder: tuple[tuple[str, ...], ...] = ()
    blocking = None
    restrict = False
    if "attack" in parser:
        section = parser["attack"]
        _check_keys("attack", section.keys(), _ATTACK_KEYS)
        if qi is None:
            raise ConfigError("[attack] requires at least one [qi ...] section")
        if "ladder" in section:
            ladder = _parse_ladder(section["ladder"], qi)
        if "blocking" in section:
            blocking = section["blocking"].strip()
            validate_blocking(blocking, qi)
        if "restrict_variant_outliers" in section:
            restrict = _as_bool("attack", "restrict_variant_outliers", section["restrict_variant_outliers"])
    if not ladder and qi is not None:
        ladder = (qi.names(),)

    return RunConfig(
        schema=schema,
        outliers=outliers,
        qi=qi,
        synth=synth,
        original=original,
        output_dir=output_dir,
        ladder=ladder,
        blocking=blocking,
        restrict_variant_outliers=restrict,
        variants=tuple(variants),
        sweep=sweep,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(render_config(cfg)) is equivalent to cfg."""
    out = io.StringIO()

    def line(s: str = "") -> None:
        out.write(s + "\n")

    line("[schema]")
    for attr in cfg.schema:
        role = " qi" if attr.role is Role.QI else ""
        line(f"{attr.name} = {attr.kind.value}{role}")

    if cfg.outliers is not None:
        line()
        line("[outliers]")
        line(f"k = {cfg.outliers.k!r}")
        line(f"attributes = {' '.join(cfg.outliers.attributes)}")
        line(f"combine = {cfg.outliers.combine.value}")
        line(f"stddev = {'population' if cfg.outliers.ddof == 0 else 'sample'}")

    if cfg.qi is not None:
        for rule in cfg.qi.rules:
            line()
            line(f"[qi {rule.name}]")
            line(f"comparator = {rule.comparator.kind.value}")
            if rule.comparator.offset is not None:
                line(f"offset = {rule.comparator.offset!r}")
            if rule.comparator.scale is not None:
                line(f"scale = {rule.comparator.scale!r}")
            line(f"threshold = {rule.threshold!r}")

    if cfg.synth is not None:
        line()
        line("[synth]")
        line(f"epsilon = {cfg.synth.epsilon!r}")
        line(f"n = {cfg.synth.n}")
        line(f"num_bins = {cfg.synth.num_bins}")
        line(f"seed = {cfg.synth.seed}")

    if cfg.original is not None or cfg.output_dir is not None:
        line()
        line("[paths]")
        if cfg.original is not None:
            line(f"original = {cfg.original}")
        if cfg.output_dir is not None:
            line(f"output_dir = {cfg.output_dir}")

    if cfg.qi is not None:
        line()
        line("[attack]")
        if cfg.ladder:
            line(f"ladder = {' | '.join(' '.join(subset) for subset in cfg.ladder)}")
        if cfg.blocking is not None:
            line(f"blocking = {cfg.blocking}")
        line(f"restrict_variant_outliers = {'true' if cfg.restrict_variant_outliers else 'false'}")

    for variant in cfg.variants:
        line()
        line(f"[variant {variant.name}]")
        if variant.file is not None:
            line(f"file = {variant.file}")
        else:
            line(f"epsilon = {variant.epsilon!r}")
            if variant.seed is not None:
                line(f"seed = {variant.seed}")
            if variant.n is not None:
                line(f"n = {variant.n}")
            if variant.num_bins is not None:
                line(f"num_bins = {variant.num_bins}")
        if variant.tags:
            line(f"tags = {' '.join(f'{k}={v}' for k, v in variant.tags)}")

    if cfg.sweep is not None:
        line()
        line("[sweep]")
        line(f"grid = {' '.join(repr(e) for e in cfg.sweep.grid)}")
        line(f"repeats = {cfg.sweep.repeats}")
        line(f"base_seed = {cfg.sweep.base_seed}")

    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()
