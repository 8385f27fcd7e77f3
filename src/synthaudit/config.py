"""On-disk run configuration: a flat, commented key/value section format.

Parsing is strict: unknown sections or keys are errors, so a typo cannot
silently weaken privacy parameters. The canonical rendering produced by
:func:`render_config` re-parses to an equivalent RunConfig and is what gets
hashed and echoed into run reports.

This module is the home of the plan's value types: the schema
(:class:`AttributeSchema`, :class:`Kind`, :class:`Role`), the outlier rule
(:class:`OutlierConfig`, :class:`Combine`), the attacker's QIs
(:class:`QIRule`, :class:`QIConfig`), the synthesizer and sweep settings and
:class:`RunConfig`. Each record checks itself when it is made: a RunConfig
checks its ``[attack] ladder`` against its QIs and keeps each subset's
QIConfig (``subsets``), so a run builds them once. It imports no numpy, so a
plan is read and checked before any data layer loads.

Besides ``[schema]`` (``attribute = <numerical|categorical> [qi]``), each
section is declared once, as an ordered table from key to :class:`_Key`:
``[outliers]``, ``[qi <attribute>]``, ``[synth]``, ``[paths]``, ``[attack]``,
``[variant <name>]`` (a file, or generator settings) and ``[sweep]``. The
unknown-key check, the required-key message, parsing and rendering all come
from those tables; only rules that span keys or sections are written out.
"""

from __future__ import annotations

import configparser
import enum
import math
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .comparators import ComparatorKind, ComparatorSpec
from .errors import ConfigError, Record

if TYPE_CHECKING:
    from .dataset import Dataset

# Characters no attribute name may contain: the audit-trail files write
# names unquoted and join the attributes that triggered a flag with "|".
NAME_FORBIDDEN = frozenset(',"|\r\n')

# Histogram bins per numeric attribute in the synthesizer (dp_synth), the
# default of [synth] num_bins.
DEFAULT_NUM_BINS = 32

# Default match thresholds: numeric QIs pass at half similarity, categorical
# QIs only on exact agreement.
NUMERIC_THRESHOLD = 0.5
CATEGORICAL_THRESHOLD = 1.0


class Kind(enum.Enum):
    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"


class Role(enum.Enum):
    QI = "qi"
    NON_QI = "non_qi"


class AttributeSchema(Record):
    """One attribute: its name, value kind, and quasi-identifier role."""

    __slots__ = {"name": "str", "kind": "Kind", "role": "Role"}
    _defaults = {"role": Role.NON_QI}


def validate_schema(schema: tuple[AttributeSchema, ...]) -> None:
    if not schema:
        raise ConfigError("schema must declare at least one attribute")
    names = [a.name for a in schema]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"duplicate attribute names in schema: {dupes}")
    bad = [n for n in names if not NAME_FORBIDDEN.isdisjoint(n)]
    if bad:
        raise ConfigError(f"attribute names must not contain ',', '\"', '|' or a line break: {bad}")


class Combine(enum.Enum):
    ANY = "any"
    ALL = "all"


class OutlierConfig(Record):
    """Threshold k, the numeric attributes to scan, and the combine rule.

    ``ddof`` selects the standard deviation convention used for the z-scores
    (0 = population, 1 = sample).
    """

    __slots__ = {"k": "float", "attributes": "tuple[str, ...]", "combine": "Combine", "ddof": "int"}
    _defaults = {"combine": Combine.ANY, "ddof": 0}

    def __post_init__(self) -> None:
        if not self.k > 0:
            raise ConfigError(f"outlier threshold k must be positive, got {self.k}")
        if self.k == math.inf:  # flags nothing
            raise ConfigError(f"outlier threshold k must be finite, got {self.k}")
        if not self.attributes:
            raise ConfigError("outlier config needs at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise ConfigError("duplicate attribute in outlier config")


class QIRule(Record):
    """One quasi-identifier: attribute, comparator, and match threshold."""

    __slots__ = {"name": "str", "comparator": "ComparatorSpec", "threshold": "float | None"}
    _defaults = {"threshold": None}

    def __post_init__(self) -> None:
        if self.threshold is None:
            default = (
                NUMERIC_THRESHOLD
                if self.comparator.kind is ComparatorKind.GAUSS
                else CATEGORICAL_THRESHOLD
            )
            object.__setattr__(self, "threshold", default)
        if not 0 < self.threshold <= 1:
            raise ConfigError(f"threshold for {self.name!r} must be in (0, 1], got {self.threshold}")


class QIConfig(Record):
    """The attacker's background-knowledge model: an ordered set of QI rules."""

    __slots__ = {"rules": "tuple[QIRule, ...]"}

    def __post_init__(self) -> None:
        names = [r.name for r in self.rules]
        if not names:
            raise ConfigError("QI config needs at least one quasi-identifier")
        if len(set(names)) != len(names):
            raise ConfigError("duplicate quasi-identifier in QI config")

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)

    def rule(self, name: str) -> QIRule:
        for r in self.rules:
            if r.name == name:
                return r
        raise ConfigError(f"no QI rule for {name!r}")

    def subset(self, names: Iterable[str]) -> "QIConfig":
        """Restrict to the given QIs, each named once, keeping configured order."""
        wanted = list(names)
        unknown = sorted(set(wanted) - set(self.names()))
        if unknown:
            raise ConfigError(f"QI subset names not configured: {unknown}")
        repeated = [name for name in wanted if wanted.count(name) > 1]
        if repeated:
            raise ConfigError(f"QI subset {','.join(wanted)!r} names {repeated[0]!r} more than once")
        return QIConfig(rules=tuple(r for r in self.rules if r.name in wanted))

    def validate_against(self, ds: Dataset) -> None:
        """Check attribute existence and comparator/kind compatibility."""
        if not any(a.role.value == "qi" for a in ds.schema):
            raise ConfigError("schema used for linkage declares no QI attribute")
        for r in self.rules:
            kind = ds.attribute(r.name).kind
            if r.comparator.kind is ComparatorKind.GAUSS and kind is not Kind.NUMERICAL:
                raise ConfigError(f"gauss comparator on non-numeric attribute {r.name!r}")
            if r.comparator.kind is not ComparatorKind.GAUSS and kind is not Kind.CATEGORICAL:
                raise ConfigError(
                    f"{r.comparator.kind.value} comparator on non-categorical attribute {r.name!r}"
                )


class SynthSettings(Record):
    """The generator's settings; an epsilon or n of None is left for the caller to give."""

    __slots__ = {"epsilon": "float | None", "n": "int | None", "num_bins": "int", "seed": "int"}
    _defaults = {"epsilon": None, "n": None, "num_bins": DEFAULT_NUM_BINS, "seed": 0}

    def __post_init__(self) -> None:
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:  # also false for nan
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.n is not None and self.n < 1:
            raise ConfigError(f"row count n must be >= 1, got {self.n}")
        if self.num_bins < 1:
            raise ConfigError(f"num_bins must be >= 1, got {self.num_bins}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def variant_settings(
    synth: SynthSettings | None,
    epsilon: float | None = None,
    n: int | None = None,
    num_bins: int | None = None,
    seed: int | None = None,
) -> SynthSettings:
    """A generated variant's settings: each value given here (a flag or
    ``[variant]`` key) that is not None, else ``synth``'s (the ``[synth]``
    section), else the default; epsilon and n have none, so they may be None."""
    base = (synth or SynthSettings())._values()
    return SynthSettings(*(old if new is None else new for old, new in zip(base, (epsilon, n, num_bins, seed))))


class SweepSettings(Record):
    __slots__ = {"grid": "tuple[float, ...]", "repeats": "int", "base_seed": "int"}
    _defaults = {"repeats": 1, "base_seed": 0}

    def __post_init__(self) -> None:
        if not self.grid:
            raise ConfigError("epsilon grid must not be empty")
        for epsilon in self.grid:  # each variant's epsilon, and the first seed, as a generator takes them
            SynthSettings(epsilon, seed=self.base_seed)
        if len(set(self.grid)) != len(self.grid):
            raise ConfigError(f"epsilon grid lists an epsilon more than once: {list(self.grid)}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")


class VariantSpec(Record):
    """A variant to audit: an external file, or parameters to generate one.

    ``tags`` carries free-form hyperparameter labels for externally
    generated files (for example ``epochs=150``), echoed into the report so
    curves over foreign hyperparameters can be assembled from audit output.
    """

    __slots__ = {
        "name": "str", "file": "str | None", "epsilon": "float | None", "seed": "int | None", "n": "int | None",
        "num_bins": "int | None", "tags": "tuple[tuple[str, str], ...]",
    }
    _defaults = {"file": None, "epsilon": None, "seed": None, "n": None, "num_bins": None, "tags": ()}

    def __post_init__(self) -> None:
        extra = sorted(key for key in ("epsilon", "seed", "n", "num_bins") if getattr(self, key) is not None)
        if self.file is not None and extra:  # a file's variant would ignore them
            raise ConfigError(f"[variant {self.name}] mixes 'file' with generator keys {extra}")


class RunConfig(Record):
    __slots__ = {
        "schema": "tuple[AttributeSchema, ...]", "outliers": "OutlierConfig | None", "qi": "QIConfig | None",
        "synth": "SynthSettings | None", "original": "str | None", "output_dir": "str | None",
        "ladder": "tuple[tuple[str, ...], ...]", "restrict_variant_outliers": "bool",
        "variants": "tuple[VariantSpec, ...]", "sweep": "SweepSettings | None",
        "_subsets": "tuple[QIConfig, ...]: each ladder subset's QIConfig, built once (see ``subsets``)",
    }
    _defaults = {
        "outliers": None, "qi": None, "synth": None, "original": None, "output_dir": None, "ladder": (),
        "restrict_variant_outliers": False, "variants": (), "sweep": None,
    }

    def __post_init__(self) -> None:
        """With ``qi`` set, check the ladder's subsets one at a time, in order: each names
        configured QIs, each QI once, and names another set of QIs than every earlier subset."""
        earlier: dict[frozenset[str], tuple[str, ...]] = {}
        subsets = []
        for names in self.ladder if self.qi is not None else ():
            if not names:
                raise ConfigError("[attack] ladder contains an empty QI subset")
            subsets.append(self.qi.subset(names))  # raises on unknown or repeated names
            if frozenset(names) in earlier:
                first = ",".join(earlier[frozenset(names)])
                raise ConfigError(f"[attack] ladder subsets {first!r} and {','.join(names)!r} name the same QIs")
            earlier[frozenset(names)] = names
        object.__setattr__(self, "_subsets", tuple(subsets))

    @property
    def subsets(self) -> tuple[QIConfig, ...]:
        """Each ladder subset's :class:`QIConfig`, in ladder order; ``()`` without ``qi``."""
        return self._subsets

    def check(self, command: str) -> None:
        """Refuse this config for ``command`` before any data is read: name the first field of
        ``_NEEDS[command]`` that is None (``original`` is ``[paths] original``), or, for ``audit``,
        a missing variant or ladder, a variant that could not run or two that would write one
        file. The ladder's subsets were checked when the config was made."""
        for field in _NEEDS[command]:
            if getattr(self, field) is not None:
                continue
            if field == "original":
                raise ConfigError(f"{'audit plan' if command == 'audit' else command} requires [paths] original")
            header = "qi ..." if field == "qi" else field  # one [qi <attribute>] section per QI
            raise ConfigError(f"'{command}' requires a [{header}] section in the config")
        if command != "audit":
            return
        if not self.variants:
            raise ConfigError("audit plan needs at least one variant")
        if not self.ladder:
            raise ConfigError("audit plan needs at least one QI subset in the ladder")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variant names in audit plan")
        writers: dict[Path, str] = {}
        for spec in self.variants:  # names become file names under the output directory
            name = spec.name
            if name in ("", ".", "..") or "/" in name or "\\" in name:
                raise ConfigError(f"variant name {name!r} must be a file name: not '', '.' or '..', no '/' or '\\'")
            if "\0" in name:  # the config parser refuses it; a library-built plan may not
                raise ConfigError(f"variant name {name!r} must not contain a NUL")
            generated = spec.file is None  # its settings raise if [synth] and its own would not run
            if generated and variant_settings(self.synth, spec.epsilon, spec.n, spec.num_bins, spec.seed).epsilon is None:
                raise ConfigError(f"variant {name!r} needs either a file or an epsilon")
            for subset in self.ladder:
                path = pair_file(name, subset)
                writer = f"variant {name!r} subset {','.join(subset)!r}"
                if path.parent != Path("pairs"):  # QI names become part of the file name too
                    raise ConfigError(f"{writer} would write {path.as_posix()}, which is not a file in pairs/")
                if path in writers:
                    raise ConfigError(f"{writers[path]} and {writer} would both write {path.as_posix()}")
                writers[path] = writer


_NEEDS = {
    "outliers": ("outliers",), "link": ("outliers", "qi"), "utility": (), "synthesize": (),
    "audit": ("outliers", "qi", "original"), "sweep": ("outliers", "qi", "sweep", "original"),
}


def pair_file(variant: str, subset: tuple[str, ...]) -> Path:
    """The pair file of one variant and ladder subset, relative to the output directory."""
    return Path("pairs", f"{variant}__{'-'.join(subset)}.csv")


def _fail(section: str, key: str, value: str, expected: str) -> ConfigError:
    return ConfigError(f"[{section}] {key} = {value!r}: expected {expected}")


class _Key(Record):
    """How one key reads its text and writes its value back.

    ``parse(section, key, text)`` returns the value or raises ConfigError.
    ``attr`` is the dotted attribute the value is rendered from, when it is
    not the key itself.
    """

    __slots__ = {
        "parse": "Callable[[str, str, str], Any]", "render": "Callable[[Any], str]", "required": "bool",
        "attr": "str | None",
    }
    _defaults = {"render": str, "required": False, "attr": None}


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
    # Empty subsets and unknown names are checked against [qi] by RunConfig.
    return tuple(tuple(part.split()) for part in text.split("|"))


def _tags(section: str, key: str, text: str) -> tuple[tuple[str, str], ...]:
    tokens = text.split()
    if not all("=" in token for token in tokens):
        raise _fail(section, key, text, "space-separated key=value pairs")
    tags = tuple(tuple(token.split("=", 1)) for token in tokens)
    if len(dict(tags)) != len(tags):
        raise _fail(section, key, text, "each tag key once")
    return tags


def _path(section: str, key: str, text: str) -> str:
    # an empty path would name the plan's own directory, or the working one
    path = text.strip()
    if not path:
        raise ConfigError(f"[{section}] {key} is empty")
    return path


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


_NUMBER = _Key(_number, repr)
_EPSILON = _Key(_epsilon, repr)
_COUNT = _Key(_integer(1))
_SEED = _Key(_integer(0))
_PATH = _Key(_path)
# "true" and "false" come last, so they are the names a flag renders as.
_FLAG = _choice(
    {"yes": True, "1": True, "true": True, "no": False, "0": False, "false": False}, "true or false"
)

# One ordered table per keyed section: parse order, render order and the
# allowed keys all come from here.
_OUTLIERS = {
    "k": _Key(_number, repr, required=True),
    "attributes": _Key(_words, " ".join, required=True),
    "combine": _choice({c.value: c for c in Combine}, "'any' or 'all'"),
    "stddev": _choice({"population": 0, "sample": 1}, "'population' or 'sample'", attr="ddof"),
}
_QI = {
    "comparator": _choice(
        {c.value: c for c in ComparatorKind}, "gauss, levenshtein or exact", required=True, attr="comparator.kind"
    ),
    "offset": _Key(_number, repr, attr="comparator.offset"),
    "scale": _Key(_number, repr, attr="comparator.scale"),
    "threshold": _NUMBER,
}
_SYNTH = {
    "epsilon": _EPSILON,
    "n": _COUNT,
    "num_bins": _COUNT,
    "seed": _SEED,
}
_PATHS = {"original": _PATH, "output_dir": _PATH}
_ATTACK = {
    "ladder": _Key(_ladder, lambda ladder: " | ".join(" ".join(names) for names in ladder)),
    "restrict_variant_outliers": _FLAG,
}
_VARIANT = {
    "file": _PATH,
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
        if name.split() != [name]:  # lists of names, such as [outliers] attributes, split on whitespace
            raise ConfigError(f"[schema] attribute name {name!r} holds whitespace, which separates names")
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


def parse_config(text: str) -> RunConfig:
    if "\0" in text:  # a NUL can reach a file name, which the OS refuses only once a run has begun
        raise ConfigError("config contains a NUL character")
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
            variants.append(VariantSpec(section.split(" ", 1)[1], **_read(section, parser[section], _VARIANT)))
        else:
            raise ConfigError(f"unknown section [{section}]")

    qi = QIConfig(rules=tuple(qi_rules)) if qi_rules else None
    outliers = _parse_outliers(parser["outliers"], schema) if "outliers" in parser else None
    synth = SynthSettings(**_read("synth", parser["synth"], _SYNTH)) if "synth" in parser else None
    sweep = SweepSettings(**_read("sweep", parser["sweep"], _SWEEP)) if "sweep" in parser else None
    paths = _read("paths", parser["paths"], _PATHS) if "paths" in parser else {}
    attack = _read("attack", parser["attack"], _ATTACK) if "attack" in parser else {}
    if "attack" in parser and qi is None:
        raise ConfigError("[attack] requires at least one [qi ...] section")
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
        text = path.read_text(encoding="utf-8-sig")  # a UTF-8 byte order mark is skipped
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
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
        # a [variant] with no keys takes every setting from [synth], and is still a variant
        *(_render(f"variant {v.name}", v, _VARIANT) or f"[variant {v.name}]\n" for v in cfg.variants),
        _render("sweep", cfg.sweep, _SWEEP),
    ]
    return "\n".join(block for block in blocks if block)


def config_hash(cfg: RunConfig) -> str:
    import hashlib  # loads OpenSSL, which only hashing commands need

    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()
