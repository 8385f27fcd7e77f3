from __future__ import annotations

import pytest

from synthaudit import Combine, ComparatorKind, ConfigError, Kind, Role
from synthaudit.config import (
    RunConfig,
    SweepSettings,
    SynthSettings,
    VariantSpec,
    config_hash,
    load_config,
    parse_config,
    render_config,
)

FULL_CONFIG = """\
# example toolkit configuration
[schema]
age = numerical qi
income = numerical qi
home = categorical qi
intent = categorical qi
amount = numerical

[outliers]
k = 3.0
attributes = age income
combine = any

[qi age]
comparator = gauss
offset = 5
scale = 5

[qi income]
comparator = gauss
offset = 1000
scale = 1000
threshold = 0.5

[qi home]
comparator = levenshtein

[qi intent]
comparator = exact

[synth]
epsilon = 1.0
n = 500
num_bins = 16
seed = 42

[paths]
original = original.csv
output_dir = out

[attack]
ladder = age income | age income home intent
restrict_variant_outliers = false

[variant external]
file = variants/external.csv
tags = epochs=150 embedding_dim=12

[variant dp_low]
epsilon = 0.1
seed = 7

[sweep]
grid = 0.01 0.1 1.0
repeats = 2
base_seed = 3
"""


def test_parse_full_config():
    cfg = parse_config(FULL_CONFIG)
    assert [a.name for a in cfg.schema] == ["age", "income", "home", "intent", "amount"]
    assert cfg.schema[0].kind is Kind.NUMERICAL and cfg.schema[0].role is Role.QI
    assert cfg.schema[4].role is Role.NON_QI

    assert cfg.outliers.k == 3.0
    assert cfg.outliers.attributes == ("age", "income")
    assert cfg.outliers.combine is Combine.ANY
    assert cfg.outliers.ddof == 0

    assert cfg.qi.names() == ("age", "income", "home", "intent")
    age = cfg.qi.rule("age")
    assert age.comparator.kind is ComparatorKind.GAUSS
    assert (age.comparator.offset, age.comparator.scale) == (5.0, 5.0)
    assert age.threshold == 0.5  # numeric default
    assert cfg.qi.rule("home").threshold == 1.0  # categorical default
    assert cfg.qi.rule("intent").comparator.kind is ComparatorKind.EXACT

    assert cfg.synth == SynthSettings(epsilon=1.0, n=500, num_bins=16, seed=42)
    assert cfg.original == "original.csv"
    assert cfg.output_dir == "out"
    assert cfg.ladder == (("age", "income"), ("age", "income", "home", "intent"))
    assert cfg.variants == (
        VariantSpec(
            name="external",
            file="variants/external.csv",
            tags=(("epochs", "150"), ("embedding_dim", "12")),
        ),
        VariantSpec(name="dp_low", epsilon=0.1, seed=7),
    )
    assert cfg.sweep == SweepSettings(grid=(0.01, 0.1, 1.0), repeats=2, base_seed=3)


def test_ladder_defaults_to_all_qis():
    text = FULL_CONFIG.replace("ladder = age income | age income home intent\n", "")
    cfg = parse_config(text)
    assert cfg.ladder == (("age", "income", "home", "intent"),)


def test_round_trip_is_equivalent():
    cfg = parse_config(FULL_CONFIG)
    rendered = render_config(cfg)
    assert parse_config(rendered) == cfg
    # and rendering is a fixed point from there on
    assert render_config(parse_config(rendered)) == rendered


def test_config_hash_stability():
    cfg1 = parse_config(FULL_CONFIG)
    cfg2 = parse_config(FULL_CONFIG + "\n# trailing comment\n")
    assert config_hash(cfg1) == config_hash(cfg2)
    changed = parse_config(FULL_CONFIG.replace("k = 3.0", "k = 4.0"))
    assert config_hash(changed) != config_hash(cfg1)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


@pytest.mark.parametrize(
    "mutation,message",
    [
        (("[outliers]", "[outliers]\nbogus = 1"), "unknown keys"),
        (("[synth]", "[mystery]\nx = 1\n\n[synth]"), "unknown section"),
        (("comparator = exact", "comparator = exact\nscale = 2"), "takes no offset/scale"),
        (("k = 3.0", "k = fast"), "expected a number"),
        (("combine = any", "combine = sometimes"), "'any' or 'all'"),
        (("attributes = age income", "attributes = age home"), "not numerical"),
        (("attributes = age income", "attributes = age amount"), "not a QI"),
        (("ladder = age income | age income home intent", "ladder = age nope"), "not configured"),
        (("restrict_variant_outliers = false", "restrict_variant_outliers = maybe"), "true or false"),
        (("file = variants/external.csv", "file = x.csv\nepsilon = 1"), "mixes 'file'"),
        (("tags = epochs=150 embedding_dim=12", "tags = epochs"), "key=value"),
    ],
)
def test_strict_parsing_rejects(mutation, message):
    old, new = mutation
    with pytest.raises(ConfigError, match=message):
        parse_config(FULL_CONFIG.replace(old, new))


def test_gauss_on_categorical_rejected():
    text = FULL_CONFIG.replace(
        "[qi home]\ncomparator = levenshtein",
        "[qi home]\ncomparator = gauss\noffset = 1\nscale = 1",
    )
    with pytest.raises(ConfigError, match="gauss comparator on a categorical"):
        parse_config(text)


@pytest.mark.parametrize(
    "blocking, extra, message",
    [
        ("age", "", "not categorical"),
        ("home", "\nthreshold = 0.8", "threshold 1"),
        ("amount", "", "no QI rule"),
    ],
    ids=["gauss", "threshold-0.8", "not-a-qi"],
)
def test_blocking_checked_at_load(blocking, extra, message):
    text = FULL_CONFIG.replace(
        "[qi home]\ncomparator = levenshtein", "[qi home]\ncomparator = levenshtein" + extra
    ).replace("[attack]\n", f"[attack]\nblocking = {blocking}\n")
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_valid_blocking_is_kept_and_rendered():
    cfg = parse_config(FULL_CONFIG.replace("[attack]\n", "[attack]\nblocking = home\n"))
    assert cfg.blocking == "home"
    assert "blocking = home" in render_config(cfg)
    assert parse_config(render_config(cfg)) == cfg


def test_qi_rule_on_non_qi_attribute_rejected():
    text = FULL_CONFIG + "\n[qi amount]\ncomparator = gauss\noffset = 1\nscale = 1\n"
    with pytest.raises(ConfigError, match="not marked 'qi'"):
        parse_config(text)


def test_schema_required():
    with pytest.raises(ConfigError, match="\\[schema\\]"):
        parse_config("[outliers]\nk = 3\nattributes = x\n")


def test_schema_value_validation():
    with pytest.raises(ConfigError, match="'numerical' or 'categorical'"):
        parse_config("[schema]\nage = number qi\n")
    with pytest.raises(ConfigError, match="'qi' as the only flag"):
        parse_config("[schema]\nage = numerical pii\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("[schema]\nage = numerical\nage = categorical\n")


def test_attack_without_qi_rules_rejected():
    text = "[schema]\nage = numerical qi\n\n[attack]\nladder = age\n"
    with pytest.raises(ConfigError, match="\\[qi"):
        parse_config(text)


def test_minimal_schema_only_config():
    cfg = parse_config("[schema]\nage = numerical qi\n")
    assert cfg == RunConfig(schema=cfg.schema)
    assert cfg.qi is None and cfg.outliers is None and cfg.ladder == ()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("grid = 0.01 0.1 1.0", "grid = 0.1 0.1 1.0", r"grid = '0\.1 0\.1 1\.0': expected each epsilon once"),
        ("grid = 0.01 0.1 1.0", "grid = 0.1 1.0 0.10", "expected each epsilon once"),
        ("grid = 0.01 0.1 1.0", "grid = 0.01 -0.1 1.0", r"grid = '-0\.1': expected a positive, finite epsilon"),
        ("grid = 0.01 0.1 1.0", "grid = 0 0.1", r"grid = '0': expected a positive, finite epsilon"),
        ("grid = 0.01 0.1 1.0", "grid = 0.1 inf", r"grid = 'inf': expected a positive, finite epsilon"),
        ("grid = 0.01 0.1 1.0", "grid = nan 0.1", r"grid = 'nan': expected a positive, finite epsilon"),
        ("repeats = 2", "repeats = 0", r"repeats = '0': expected an integer >= 1"),
        ("repeats = 2", "repeats = -3", r"repeats = '-3': expected an integer >= 1"),
    ],
    ids=["duplicate", "duplicate-spelled-apart", "negative", "zero", "inf", "nan", "repeats-0", "repeats-negative"],
)
def test_sweep_grid_and_repeats_rejected(old, new, message):
    assert old in FULL_CONFIG
    with pytest.raises(ConfigError, match=message):
        parse_config(FULL_CONFIG.replace(old, new))


@pytest.mark.parametrize(
    "grid, repeats",
    [("0.01 0.1 1.0", "2"), ("10.0 0.5", "1"), ("1e-3", "5"), ("2", "3")],
)
def test_accepted_sweep_renders_as_before(grid, repeats):
    text = FULL_CONFIG.replace("grid = 0.01 0.1 1.0", f"grid = {grid}").replace(
        "repeats = 2", f"repeats = {repeats}"
    )
    cfg = parse_config(text)
    expected = (
        f"[sweep]\ngrid = {' '.join(repr(float(e)) for e in grid.split())}\n"
        f"repeats = {repeats}\nbase_seed = 3\n"
    )
    assert render_config(cfg).endswith(expected)
    assert parse_config(render_config(cfg)) == cfg
