"""On-disk run configuration: a flat, commented key/value section format.

Parsing is strict: unknown sections or keys are errors, so a typo cannot
silently weaken privacy parameters. The canonical rendering produced by
:func:`render_config` re-parses to an equivalent RunConfig and is what gets
hashed and echoed into run reports.

Besides ``[schema]`` (``attribute = <numerical|categorical> [qi]``), each
section is declared once, as an ordered table from key to :class:`_Key`:
``[outliers]``, ``[qi <attribute>]``, ``[synth]``, ``[paths]``, ``[attack]``,
``[variant <name>]`` (a file, or generator settings) and ``[sweep]``. The
unknown-key check, the required-key message, parsing and rendering all come
from those tables; only rules that span keys or sections are written out.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable

from .comparators import ComparatorKind, ComparatorSpec
from .dataset import AttributeSchema, Kind, Role, validate_schema
from .dp_synth import DEFAULT_NUM_BINS
from .errors import ConfigError
from .linkage import QIConfig, QIRule, validate_blocking
from .outliers import Combine, OutlierConfig


@dataclass(frozen=True)
class SynthSettings:
    epsilon: float
    n: int
    num_bins: int = DEFAULT_NUM_BINS
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


@dataclass(frozen=True)
class _Key:
    """How one key reads its text and writes its value back.

    ``parse(section, key, text)`` returns the value or raises ConfigError.
    ``attr`` is the dotted attribute the value is rendered from, when it is
    not the key itself.
    """

    parse: Callable[[str, str, str], Any]
    render: Callable[[Any], str] = str
    required: bool = False
    attr: str | None = None


def _words(section: str, key: str, text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _number(section: str, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _fail(section, key, text, "a number") from None


def _epsilon(section: str, key: str, text: str) -> float:
    value = _number(section, key, text)
    if not 0 < value < math.inf:  # also false for nan
        raise _fail(section, key, text, "a positive, finite epsilon")
    return value


def _integer(least: int) -> Callable[[str, str, str], int]:
    def parse(section: str, key: str, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _fail(section, key, text, "an integer") from None
        if value < least:
            raise _fail(section, key, text, f"an integer >= {least}")
        return value

    return parse


def _choice(options: dict[str, Any], expected: str, **kwargs) -> _Key:
    """A key naming one of ``options``, case-insensitively; a value renders as its last name."""
    names = {value: name for name, value in options.items()}

    def parse(section: str, key: str, text: str) -> Any:
        try:
            return options[text.strip().lower()]
        except KeyError:
            raise _fail(section, key, text, expected) from None

    return _Key(parse, names.__getitem__, **kwargs)


def _ladder(section: str, key: str, text: str) -> tuple[tuple[str, ...], ...]:
    # Empty subsets and unknown names are checked against [qi] by _parse_attack.
    return tuple(tuple(part.split()) for part in text.split("|"))


def _tags(section: str, key: str, text: str) -> tuple[tuple[str, str], ...]:
    tokens = text.split()
    if not all("=" in token for token in tokens):
        raise _fail(section, key, text, "space-separated key=value pairs")
    return tuple(tuple(token.split("=", 1)) for token in tokens)


def _grid(section: str, key: str, text: str) -> tuple[float, ...]:
    tokens = text.split()
    grid = tuple(_number(section, key, tok) for tok in tokens)
    if not grid:
        raise ConfigError(f"[{section}] grid is empty")
    for tok in tokens:
        _epsilon(section, key, tok)
    if len(set(grid)) != len(grid):
        raise _fail(section, key, text, "each epsilon once")
    return grid


_COMPARATOR = _choice({c.value: c for c in ComparatorKind}, "gauss, levenshtein or exact")
_NUMBER = _Key(_number, repr)
_EPSILON = _Key(_epsilon, repr)
_COUNT = _Key(_integer(1))
_SEED = _Key(_integer(0))
_TEXT = _Key(lambda section, key, text: text.strip())
# "true" and "false" come last, so they are the names a flag renders as.
_FLAG = _choice(
    {"yes": True, "1": True, "true": True, "no": False, "0": False, "false": False}, "true or false"
)

# One ordered table per keyed section: parse order, render order and the
# allowed keys all come from here.
_OUTLIERS = {
    "k": replace(_NUMBER, required=True),
    "attributes": _Key(_words, " ".join, required=True),
    "combine": _choice({c.value: c for c in Combine}, "'any' or 'all'"),
    "stddev": _choice({"population": 0, "sample": 1}, "'population' or 'sample'", attr="ddof"),
}
_QI = {
    "comparator": replace(_COMPARATOR, required=True, attr="comparator.kind"),
    "offset": replace(_NUMBER, attr="comparator.offset"),
    "scale": replace(_NUMBER, attr="comparator.scale"),
    "threshold": _NUMBER,
}
_SYNTH = {
    "epsilon": replace(_EPSILON, required=True),
    "n": replace(_COUNT, required=True),
    "num_bins": _COUNT,
    "seed": _SEED,
}
_PATHS = {"original": _TEXT, "output_dir": _TEXT}
_ATTACK = {
    "ladder": _Key(_ladder, lambda ladder: " | ".join(" ".join(names) for names in ladder)),
    "blocking": _TEXT,
    "restrict_variant_outliers": _FLAG,
}
_VARIANT = {
    "file": _TEXT,
    "epsilon": _EPSILON,
    "seed": _SEED,
    "n": _COUNT,
    "num_bins": _COUNT,
    "tags": _Key(_tags, lambda tags: " ".join(map("=".join, tags))),
}
_SWEEP = {
    "grid": _Key(_grid, lambda grid: " ".join(map(repr, grid)), required=True),
    "repeats": _COUNT,
    "base_seed": _SEED,
}


def _read(section: str, raw: configparser.SectionProxy, table: dict[str, _Key]) -> dict:
    """Check the section's keys against ``table``, then parse each in table order."""
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {unknown}")
    required = [key for key, spec in table.items() if spec.required]
    if not all(key in raw for key in required):
        both = "both " if len(required) == 2 else ""
        raise ConfigError(f"[{section}] requires {both}{' and '.join(map(repr, required))}")
    return {key: spec.parse(section, key, raw[key]) for key, spec in table.items() if key in raw}


def _render(section: str, obj: Any, table: dict[str, _Key]) -> str:
    """The section's text: one line per key whose value is set; '' when there is none."""
    if obj is None:
        return ""
    lines = []
    for key, spec in table.items():
        value = attrgetter(spec.attr or key)(obj)
        if value is not None and value != ():
            lines.append(f"{key} = {spec.render(value)}\n")
    return f"[{section}]\n" + "".join(lines) if lines else ""


def _parse_schema(section: configparser.SectionProxy) -> tuple[AttributeSchema, ...]:
    attrs = []
    for name, value in section.items():
        tokens = value.split()
        if not tokens or tokens[0] not in ("numerical", "categorical"):
            raise _fail("schema", name, value, "'numerical' or 'categorical', optionally 'qi'")
        if len(tokens) > 2:
            raise _fail("schema", name, value, "at most two tokens")
        if tokens[1:] not in ([], ["qi"]):
            raise _fail("schema", name, value, "'qi' as the only flag")
        role = Role.QI if len(tokens) == 2 else Role.NON_QI
        attrs.append(AttributeSchema(name=name, kind=Kind(tokens[0]), role=role))
    schema = tuple(attrs)
    validate_schema(schema)
    return schema


def _schema_attr(schema: tuple[AttributeSchema, ...], name: str) -> AttributeSchema:
    for attr in schema:
        if attr.name == name:
            return attr
    raise ConfigError(f"attribute {name!r} is not declared in [schema]")


def _parse_outliers(section, schema) -> OutlierConfig:
    values = _read("outliers", section, _OUTLIERS)
    for name in values["attributes"]:
        attr = _schema_attr(schema, name)
        if attr.kind is not Kind.NUMERICAL:
            raise ConfigError(f"[outliers] attribute {name!r} is not numerical")
        if attr.role is not Role.QI:
            raise ConfigError(f"[outliers] attribute {name!r} is not a QI")
    if "stddev" in values:
        values["ddof"] = values.pop("stddev")
    return OutlierConfig(**values)


def _parse_qi_rule(attr_name: str, section, schema) -> QIRule:
    section_name = f"qi {attr_name}"
    attr = _schema_attr(schema, attr_name)
    if attr.role is not Role.QI:
        raise ConfigError(f"[{section_name}]: {attr_name!r} is not marked 'qi' in [schema]")
    values = _read(section_name, section, _QI)
    kind = values["comparator"]
    if kind is ComparatorKind.GAUSS and attr.kind is not Kind.NUMERICAL:
        raise ConfigError(f"[{section_name}]: gauss comparator on a categorical attribute")
    if kind is not ComparatorKind.GAUSS and attr.kind is not Kind.CATEGORICAL:
        raise ConfigError(f"[{section_name}]: {kind.value} comparator on a numeric attribute")
    comparator = ComparatorSpec(kind=kind, offset=values.get("offset"), scale=values.get("scale"))
    return QIRule(name=attr_name, comparator=comparator, threshold=values.get("threshold"))


def _parse_attack(section, qi: QIConfig | None) -> dict:
    values = _read("attack", section, _ATTACK)
    if qi is None:
        raise ConfigError("[attack] requires at least one [qi ...] section")
    for names in values.get("ladder", ()):  # one subset at a time, in order
        if not names:
            raise ConfigError("[attack] ladder contains an empty QI subset")
        qi.subset(names)  # raises on unknown names
    if "blocking" in values:
        validate_blocking(values["blocking"], qi)
    return values


def _parse_variant(name: str, section) -> VariantSpec:
    section_name = f"variant {name}"
    values = _read(section_name, section, _VARIANT)
    if "file" in values:
        extra = sorted(set(values) - {"file", "tags"})
        if extra:
            raise ConfigError(f"[{section_name}] mixes 'file' with generator keys {extra}")
    elif "epsilon" not in values:
        raise ConfigError(f"[{section_name}] needs either 'file' or 'epsilon'")
    return VariantSpec(name=name, **values)


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
    synth = SynthSettings(**_read("synth", parser["synth"], _SYNTH)) if "synth" in parser else None
    sweep = SweepSettings(**_read("sweep", parser["sweep"], _SWEEP)) if "sweep" in parser else None
    paths = _read("paths", parser["paths"], _PATHS) if "paths" in parser else {}
    attack = _parse_attack(parser["attack"], qi) if "attack" in parser else {}
    if "ladder" not in attack and qi is not None:
        attack["ladder"] = (qi.names(),)

    return RunConfig(
        schema=schema,
        outliers=outliers,
        qi=qi,
        synth=synth,
        variants=tuple(variants),
        sweep=sweep,
        **paths,
        **attack,
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
    schema = "".join(
        f"{attr.name} = {attr.kind.value}{' qi' if attr.role is Role.QI else ''}\n"
        for attr in cfg.schema
    )
    rules = cfg.qi.rules if cfg.qi is not None else ()
    blocks = [
        "[schema]\n" + schema,
        _render("outliers", cfg.outliers, _OUTLIERS),
        *(_render(f"qi {rule.name}", rule, _QI) for rule in rules),
        _render("synth", cfg.synth, _SYNTH),
        _render("paths", cfg, _PATHS),
        _render("attack", cfg if cfg.qi is not None else None, _ATTACK),
        *(_render(f"variant {variant.name}", variant, _VARIANT) for variant in cfg.variants),
        _render("sweep", cfg.sweep, _SWEEP),
    ]
    return "\n".join(block for block in blocks if block)


def config_hash(cfg: RunConfig) -> str:
    import hashlib  # loads OpenSSL, which only hashing commands need

    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()
