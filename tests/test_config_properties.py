"""Property test: render_config and parse_config round-trip any valid RunConfig.

Each case builds a random, valid RunConfig directly (schema, QI rules, every
optional section, variants of both kinds), renders it, and checks that the
text parses back to an equal config and that rendering is a fixed point.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from synthaudit import (  # noqa: E402
    AttributeSchema,
    Combine,
    ComparatorKind,
    ComparatorSpec,
    Kind,
    OutlierConfig,
    QIConfig,
    QIRule,
    Role,
)
from synthaudit.config import (  # noqa: E402
    RunConfig,
    SweepSettings,
    SynthSettings,
    VariantSpec,
    parse_config,
    render_config,
)

NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)
# an empty path is refused (test_config.py pins its text)
PATHS = st.from_regex(r"[A-Za-z0-9_./-]{1,12}", fullmatch=True)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
SEEDS = st.integers(0, 2**40)
COUNTS = st.integers(1, 10**6)
TAGS = st.lists(
    st.tuples(
        st.from_regex(r"[a-z0-9_.]{0,6}", fullmatch=True),
        st.from_regex(r"[a-z0-9_.=]{0,6}", fullmatch=True),
    ),
    max_size=3,
    unique_by=lambda tag: tag[0],  # a config names each tag key once
).map(tuple)


def _rule(draw, attr: AttributeSchema) -> QIRule:
    if attr.kind is Kind.NUMERICAL:
        comparator = ComparatorSpec(
            ComparatorKind.GAUSS,
            offset=draw(st.floats(min_value=0.0, max_value=1e9)),
            scale=draw(st.floats(min_value=0.0, max_value=1e9, exclude_min=True)),
        )
    else:
        comparator = ComparatorSpec(draw(st.sampled_from([ComparatorKind.LEVENSHTEIN, ComparatorKind.EXACT])))
    return QIRule(attr.name, comparator, draw(st.none() | UNIT))


def _variant(draw, name: str) -> VariantSpec:
    if draw(st.booleans()):
        return VariantSpec(name=name, file=draw(PATHS), tags=draw(TAGS))
    return VariantSpec(
        name=name,
        epsilon=draw(POSITIVE),
        seed=draw(st.none() | SEEDS),
        n=draw(st.none() | COUNTS),
        num_bins=draw(st.none() | COUNTS),
        tags=draw(TAGS),
    )


@st.composite
def run_configs(draw) -> RunConfig:
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    schema = tuple(
        AttributeSchema(
            name,
            draw(st.sampled_from(Kind)),
            Role.QI if draw(st.booleans()) else Role.NON_QI,
        )
        for name in names
    )
    qi_attrs = [attr for attr in schema if attr.role is Role.QI]
    ruled = draw(st.permutations(qi_attrs))[: draw(st.integers(0, len(qi_attrs)))]
    qi = QIConfig(tuple(_rule(draw, attr) for attr in ruled)) if ruled else None

    numeric_qis = [attr.name for attr in qi_attrs if attr.kind is Kind.NUMERICAL]
    outliers = None
    if numeric_qis and draw(st.booleans()):
        outliers = OutlierConfig(
            k=draw(POSITIVE),
            attributes=tuple(
                draw(st.lists(st.sampled_from(numeric_qis), min_size=1, max_size=3, unique=True))
            ),
            combine=draw(st.sampled_from(Combine)),
            ddof=draw(st.sampled_from([0, 1])),
        )

    ladder: tuple[tuple[str, ...], ...] = ()
    restrict = False
    if qi is not None:
        # a subset names each QI once, and no two subsets name the same set
        subset = st.lists(st.sampled_from(qi.names()), min_size=1, max_size=4, unique=True).map(tuple)
        ladder = tuple(draw(st.lists(subset, min_size=1, max_size=3, unique_by=frozenset)))
        restrict = draw(st.booleans())

    synth = None
    if draw(st.booleans()):
        synth = SynthSettings(epsilon=draw(POSITIVE), n=draw(COUNTS), num_bins=draw(COUNTS), seed=draw(SEEDS))
    sweep = None
    if draw(st.booleans()):
        grid = draw(st.lists(POSITIVE, min_size=1, max_size=5, unique=True))
        sweep = SweepSettings(grid=tuple(grid), repeats=draw(COUNTS), base_seed=draw(SEEDS))
    variant_names = draw(st.lists(NAMES, max_size=3, unique=True))

    return RunConfig(
        schema=schema,
        outliers=outliers,
        qi=qi,
        synth=synth,
        original=draw(st.none() | PATHS),
        output_dir=draw(st.none() | PATHS),
        ladder=ladder,
        restrict_variant_outliers=restrict,
        variants=tuple(_variant(draw, name) for name in variant_names),
        sweep=sweep,
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cfg=run_configs())
def test_render_round_trips_and_is_a_fixed_point(cfg):
    text = render_config(cfg)
    assert parse_config(text) == cfg
    assert render_config(parse_config(text)) == text
