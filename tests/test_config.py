from __future__ import annotations

import configparser
from pathlib import Path

import pytest

from synthaudit import AttributeSchema, Combine, ComparatorKind, ConfigError, Kind, Role, run_audit
from synthaudit.config import (
    RunConfig,
    SweepSettings,
    SynthSettings,
    VariantSpec,
    config_hash,
    load_config,
    parse_config,
    render_config,
    validate_schema,
    variant_settings,
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


def test_readme_example_config_loads_and_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration format", 1)[1]
    text = section.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(text)
    assert cfg.qi.rule("person_age").comparator.kind is ComparatorKind.GAUSS
    assert cfg.qi.rule("person_home_ownership").comparator.kind is ComparatorKind.LEVENSHTEIN
    assert cfg.outliers.combine is Combine.ANY
    assert (cfg.original, cfg.output_dir) == ("original.csv", "out")
    assert cfg.variants[0].tags == (("epochs", "150"),)
    assert parse_config(render_config(cfg)) == cfg


def test_config_hash_stability():
    cfg1 = parse_config(FULL_CONFIG)
    cfg2 = parse_config(FULL_CONFIG + "\n# trailing comment\n")
    assert config_hash(cfg1) == config_hash(cfg2)
    changed = parse_config(FULL_CONFIG.replace("k = 3.0", "k = 4.0"))
    assert config_hash(changed) != config_hash(cfg1)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


def test_a_config_that_is_not_utf8_cannot_be_read(tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes(FULL_CONFIG.replace("home", "caf\u00e9").encode("latin-1"))
    with pytest.raises(UnicodeDecodeError) as decode:
        path.read_text(encoding="utf-8")
    with pytest.raises(ConfigError) as caught:
        load_config(path)
    assert str(caught.value) == f"cannot read config {path}: {decode.value}"


def test_a_config_path_holding_a_nul_cannot_be_read():
    with pytest.raises(ConfigError) as caught:
        load_config("a\0b")
    assert str(caught.value) == "cannot read config a\0b: embedded null byte"


def test_a_config_that_starts_with_a_byte_order_mark_loads_as_without_it(tmp_path):
    path = tmp_path / "bom.ini"
    path.write_bytes(b"\xef\xbb\xbf" + FULL_CONFIG.encode("utf-8"))
    cfg = load_config(path)
    assert cfg == parse_config(FULL_CONFIG)
    assert config_hash(cfg) == config_hash(parse_config(FULL_CONFIG))


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


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a|b"])
def test_attribute_name_that_breaks_the_trail_rejected(name):
    with pytest.raises(ConfigError) as caught:
        parse_config(f"[schema]\n{name} = numerical qi\nc = numerical qi\n")
    message = "attribute names must not contain ',', '\"', '|' or a line break"
    assert str(caught.value) == f"{message}: [{name!r}]"
    for name in ("a\rb", "a\nb"):  # no config key holds one; a library schema can
        with pytest.raises(ConfigError, match=message):
            validate_schema((AttributeSchema(name, Kind.NUMERICAL),))


def test_duplicate_outlier_attribute_rejected():
    text = "[schema]\nx = numerical qi\n\n[outliers]\nk = 1\nattributes = x x\n"
    with pytest.raises(ConfigError) as caught:
        parse_config(text)
    assert str(caught.value) == "duplicate attribute in outlier config"


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


# Every key of every section, the generated variant's keys out of rendering order.
EVERY_KEY_CONFIG = """\
# every key of every section
[schema]
age = numerical qi
income = numerical qi
home = categorical qi
intent = categorical qi
amount = numerical

[outliers]
k = 2.5
attributes = age income
combine = all
stddev = sample

[qi age]
comparator = gauss
offset = 5
scale = 5
threshold = 0.5

[qi income]
comparator = gauss
offset = 1000
scale = 2000
threshold = 0.25

[qi home]
comparator = levenshtein
threshold = 1

[qi intent]
comparator = exact
threshold = 1.0

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
restrict_variant_outliers = true

[variant external]
file = variants/external.csv
tags = epochs=150 embedding_dim=12

[variant generated]
tags = source=dp run=2
num_bins = 8
n = 300
seed = 7
epsilon = 0.5

[sweep]
grid = 0.01 0.1 1.0
repeats = 2
base_seed = 3
"""

EVERY_KEY_RENDERED = """\
[schema]
age = numerical qi
income = numerical qi
home = categorical qi
intent = categorical qi
amount = numerical

[outliers]
k = 2.5
attributes = age income
combine = all
stddev = sample

[qi age]
comparator = gauss
offset = 5.0
scale = 5.0
threshold = 0.5

[qi income]
comparator = gauss
offset = 1000.0
scale = 2000.0
threshold = 0.25

[qi home]
comparator = levenshtein
threshold = 1.0

[qi intent]
comparator = exact
threshold = 1.0

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
restrict_variant_outliers = true

[variant external]
file = variants/external.csv
tags = epochs=150 embedding_dim=12

[variant generated]
epsilon = 0.5
seed = 7
n = 300
num_bins = 8
tags = source=dp run=2

[sweep]
grid = 0.01 0.1 1.0
repeats = 2
base_seed = 3
"""

CREDIT_RISK_INI = Path(__file__).resolve().parents[1] / "configs" / "credit_risk.ini"

CREDIT_RISK_RENDERED = """\
[schema]
person_age = numerical qi
person_income = numerical qi
person_home_ownership = categorical qi
person_emp_length = numerical
loan_intent = categorical qi
loan_grade = categorical
loan_amnt = numerical
loan_int_rate = numerical
loan_status = numerical
loan_percent_income = numerical
cb_person_default_on_file = categorical
cb_person_cred_hist_length = numerical

[outliers]
k = 3.0
attributes = person_age person_income
combine = any
stddev = population

[qi person_age]
comparator = gauss
offset = 5.0
scale = 5.0
threshold = 0.5

[qi person_income]
comparator = gauss
offset = 1000.0
scale = 1000.0
threshold = 0.5

[qi person_home_ownership]
comparator = levenshtein
threshold = 1.0

[qi loan_intent]
comparator = levenshtein
threshold = 1.0

[synth]
epsilon = 1.0
n = 22910
num_bins = 32
seed = 42

[paths]
original = data/credit_risk.csv
output_dir = out

[attack]
ladder = person_age person_income | person_age person_income person_home_ownership loan_intent
restrict_variant_outliers = false

[variant dp_independent]
epsilon = 1.0
seed = 42

[sweep]
grid = 0.01 0.1 0.2 0.5 1.0 5.0 10.0
repeats = 3
base_seed = 0
"""


@pytest.mark.parametrize(
    "cfg_text, rendered, digest",
    [
        (
            EVERY_KEY_CONFIG,
            EVERY_KEY_RENDERED,
            "2260a0c67e6f2114ea32aa0895b19b6ab36b3fe7a75aa02807b7570b36ad0ae3",
        ),
        (
            CREDIT_RISK_INI.read_text(encoding="utf-8"),
            CREDIT_RISK_RENDERED,
            "c458085fff9192fd38091f43d5f0b716d893c46d7510edc5e811adc0cc9882c1",
        ),
    ],
    ids=["every-key", "credit-risk"],
)
def test_render_and_hash_are_pinned(cfg_text, rendered, digest):
    # config_hash and effective_config are non-volatile report keys: these bytes must not move.
    cfg = parse_config(cfg_text)
    assert render_config(cfg) == rendered
    assert config_hash(cfg) == digest
    assert render_config(parse_config(rendered)) == rendered


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[outliers]\n", "[outliers]\nbogus = 1\n", "unknown keys in [outliers]: ['bogus']"),
        ("k = 2.5\n", "", "[outliers] requires both 'k' and 'attributes'"),
        ("attributes = age income", "attributes = age nope", "attribute 'nope' is not declared in [schema]"),
        ("attributes = age income", "attributes = age home", "[outliers] attribute 'home' is not numerical"),
        ("attributes = age income", "attributes = amount", "[outliers] attribute 'amount' is not a QI"),
        ("attributes = age income", "attributes =", "outlier config needs at least one attribute"),
        ("combine = all", "combine = sometimes", "[outliers] combine = 'sometimes': expected 'any' or 'all'"),
        ("stddev = sample", "stddev = both", "[outliers] stddev = 'both': expected 'population' or 'sample'"),
        ("k = 2.5", "k = fast", "[outliers] k = 'fast': expected a number"),
        ("k = 2.5", "k = -1", "outlier threshold k must be positive, got -1.0"),
        ("[qi age]\n", "[qi age]\nbogus = 1\n", "unknown keys in [qi age]: ['bogus']"),
        ("comparator = levenshtein\n", "", "[qi home] requires 'comparator'"),
        (
            "comparator = levenshtein",
            "comparator = fuzzy",
            "[qi home] comparator = 'fuzzy': expected gauss, levenshtein or exact",
        ),
        (
            "[qi home]\ncomparator = levenshtein",
            "[qi home]\ncomparator = gauss\noffset = 1\nscale = 1",
            "[qi home]: gauss comparator on a categorical attribute",
        ),
        (
            "[qi age]\ncomparator = gauss\noffset = 5\nscale = 5",
            "[qi age]\ncomparator = exact",
            "[qi age]: exact comparator on a numeric attribute",
        ),
        ("offset = 5\n", "offset = x\n", "[qi age] offset = 'x': expected a number"),
        ("scale = 5\n", "scale = x\n", "[qi age] scale = 'x': expected a number"),
        ("threshold = 0.25", "threshold = x", "[qi income] threshold = 'x': expected a number"),
        ("scale = 5\n", "scale = 0\n", "gauss comparator requires scale > 0, got 0.0"),
        ("scale = 5\n", "", "gauss comparator requires scale > 0, got None"),
        ("offset = 5\n", "offset = -1\n", "gauss comparator requires offset >= 0, got -1.0"),
        ("comparator = exact", "comparator = exact\nscale = 2", "exact comparator takes no offset/scale"),
        ("threshold = 1\n", "threshold = 1.5\n", "threshold for 'home' must be in (0, 1], got 1.5"),
        ("[synth]\n", "[synth]\nbogus = 1\n", "unknown keys in [synth]: ['bogus']"),
        ("epsilon = 1.0\nn = 500", "epsilon = x\nn = 500", "[synth] epsilon = 'x': expected a number"),
        ("n = 500", "n = 5.5", "[synth] n = '5.5': expected an integer"),
        ("num_bins = 16", "num_bins = x", "[synth] num_bins = 'x': expected an integer"),
        ("seed = 42", "seed = x", "[synth] seed = 'x': expected an integer"),
        ("[paths]\n", "[paths]\nzeta = 1\nalpha = 2\n", "unknown keys in [paths]: ['alpha', 'zeta']"),
        # an empty path would name the plan's directory, or the working one
        ("original = original.csv", "original =", "[paths] original is empty"),
        ("output_dir = out", "output_dir =", "[paths] output_dir is empty"),
        ("file = variants/external.csv", "file =", "[variant external] file is empty"),
        ("[attack]\n", "[attack]\nbogus = 1\n", "unknown keys in [attack]: ['bogus']"),
        ("ladder = age income |", "ladder = age income | |", "[attack] ladder contains an empty QI subset"),
        ("ladder = age income |", "ladder = age nope |", "QI subset names not configured: ['nope']"),
        # two faults in one ladder: the subsets are checked in order
        ("ladder = age income |", "ladder = nope | |", "QI subset names not configured: ['nope']"),
        ("ladder = age income |", "ladder = | nope |", "[attack] ladder contains an empty QI subset"),
        # a subset is a set: each QI once, and no set twice, in any order
        ("ladder = age income |", "ladder = age income age |", "QI subset 'age,income,age' names 'age' more than once"),
        (
            "ladder = age income |",
            "ladder = age income | home | income age |",
            "[attack] ladder subsets 'age,income' and 'income,age' name the same QIs",
        ),
        ("ladder = age income |", "ladder = home | home |", "[attack] ladder subsets 'home' and 'home' name the same QIs"),
        ("ladder = age income |", "ladder = age age | nope |", "QI subset 'age,age' names 'age' more than once"),
        ("[attack]\n", "[attack]\nblocking = home\n", "unknown keys in [attack]: ['blocking']"),
        (
            "restrict_variant_outliers = true",
            "restrict_variant_outliers = maybe",
            "[attack] restrict_variant_outliers = 'maybe': expected true or false",
        ),
        ("[variant generated]\n", "[variant generated]\nbogus = 1\n", "unknown keys in [variant generated]: ['bogus']"),
        (
            "tags = epochs=150 embedding_dim=12",
            "tags = epochs",
            "[variant external] tags = 'epochs': expected space-separated key=value pairs",
        ),
        ("tags = epochs=150 embedding_dim=12", "tags = a=1 a=2", "[variant external] tags = 'a=1 a=2': expected each tag key once"),
        (
            "file = variants/external.csv",
            "file = x.csv\nepsilon = 1\nseed = 2",
            "[variant external] mixes 'file' with generator keys ['epsilon', 'seed']",
        ),
        ("epsilon = 0.5", "epsilon = x", "[variant generated] epsilon = 'x': expected a number"),
        ("seed = 7", "seed = x", "[variant generated] seed = 'x': expected an integer"),
        ("n = 300", "n = x", "[variant generated] n = 'x': expected an integer"),
        ("num_bins = 8", "num_bins = x", "[variant generated] num_bins = 'x': expected an integer"),
        ("[sweep]\n", "[sweep]\nbogus = 1\n", "unknown keys in [sweep]: ['bogus']"),
        ("grid = 0.01 0.1 1.0\n", "", "[sweep] requires 'grid'"),
        ("grid = 0.01 0.1 1.0", "grid =", "[sweep] grid is empty"),
        ("grid = 0.01 0.1 1.0", "grid = 0.1 x", "[sweep] grid = 'x': expected a number"),
        ("grid = 0.01 0.1 1.0", "grid = 0.1 0", "[sweep] grid = '0': expected a positive, finite epsilon"),
        ("grid = 0.01 0.1 1.0", "grid = 0.1 0.1", "[sweep] grid = '0.1 0.1': expected each epsilon once"),
        ("repeats = 2", "repeats = x", "[sweep] repeats = 'x': expected an integer"),
        ("repeats = 2", "repeats = 0", "[sweep] repeats = '0': expected an integer >= 1"),
        ("base_seed = 3", "base_seed = x", "[sweep] base_seed = 'x': expected an integer"),
        ("[sweep]", "[mystery]\nx = 1\n\n[sweep]", "unknown section [mystery]"),
        ("age = numerical qi", "age = number qi", "[schema] age = 'number qi': expected 'numerical' or 'categorical', optionally 'qi'"),
        ("age = numerical qi", "age = numerical pii", "[schema] age = 'numerical pii': expected 'qi' as the only flag"),
        ("age = numerical qi", "age = numerical qi x", "[schema] age = 'numerical qi x': expected at most two tokens"),
        # lists of names split on whitespace, so such a name could not be listed or echoed back
        (
            "age = numerical qi",
            "person age = numerical qi",
            "[schema] attribute name 'person age' holds whitespace, which separates names",
        ),
        (
            "amount = numerical",
            "am\tount = numerical",
            "[schema] attribute name 'am\\tount' holds whitespace, which separates names",
        ),
        ("[qi intent]", "[qi amount]\ncomparator = exact\n\n[qi intent]", "[qi amount]: 'amount' is not marked 'qi' in [schema]"),
        ("[qi intent]", "[qi nope]\ncomparator = exact\n\n[qi intent]", "attribute 'nope' is not declared in [schema]"),
    ],
)
def test_every_config_error_text_is_pinned(old, new, message):
    assert old in EVERY_KEY_CONFIG
    with pytest.raises(ConfigError) as caught:
        parse_config(EVERY_KEY_CONFIG.replace(old, new, 1))
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("[outliers]\nk = 3\n", "config requires a [schema] section"),
        ("[schema]\n", "schema must declare at least one attribute"),
        ("[schema]\nage = numerical qi\n\n[attack]\n", "[attack] requires at least one [qi ...] section"),
    ],
)
def test_section_level_error_text_is_pinned(text, message):
    with pytest.raises(ConfigError) as caught:
        parse_config(text)
    assert str(caught.value) == message


def test_malformed_and_unreadable_error_text_is_pinned(tmp_path):
    text = "[schema]\nage = numerical\nage = categorical\n"
    with pytest.raises(configparser.Error) as stdlib:
        configparser.ConfigParser(interpolation=None).read_string(text)
    with pytest.raises(ConfigError) as caught:
        parse_config(text)
    assert str(caught.value) == f"malformed config: {stdlib.value}"

    missing = tmp_path / "nope.ini"
    with pytest.raises(OSError) as os_error:
        missing.read_text(encoding="utf-8")
    with pytest.raises(ConfigError) as caught:
        load_config(missing)
    assert str(caught.value) == f"cannot read config {missing}: {os_error.value}"


def test_every_synth_key_is_optional():
    cfg = parse_config(EVERY_KEY_CONFIG.replace("epsilon = 1.0\nn = 500\n", "", 1))
    assert cfg.synth == SynthSettings(epsilon=None, n=None, num_bins=16, seed=42)
    assert parse_config(render_config(cfg)) == cfg
    empty = parse_config(EVERY_KEY_CONFIG.replace("epsilon = 1.0\nn = 500\nnum_bins = 16\nseed = 42\n", "", 1))
    assert empty.synth == SynthSettings()


def test_a_generated_variant_takes_its_epsilon_from_synth():
    cfg = parse_config(EVERY_KEY_CONFIG.replace("epsilon = 0.5\n", "", 1))
    generated = cfg.variants[1]
    assert (generated.name, generated.epsilon) == ("generated", None)
    settings = variant_settings(cfg.synth, generated.epsilon, generated.n, generated.num_bins, generated.seed)
    assert settings == SynthSettings(epsilon=1.0, n=300, num_bins=8, seed=7)


def test_variant_without_file_or_epsilon_text_is_pinned(tmp_path):
    # neither [variant generated] nor [synth] gives an epsilon: the audit refuses
    # the plan before it reads or writes a file
    cfg = parse_config(EVERY_KEY_CONFIG.replace("epsilon = 0.5\n", "", 1).replace("epsilon = 1.0\n", "", 1))
    with pytest.raises(ConfigError) as caught:
        run_audit(cfg, tmp_path / "out", tmp_path)
    assert str(caught.value) == "variant 'generated' needs either a file or an epsilon"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("epsilon = 1.0\nn = 500", "epsilon = -1\nn = 500", "[synth] epsilon = '-1': expected a positive, finite epsilon"),
        ("epsilon = 1.0\nn = 500", "epsilon = 0\nn = 500", "[synth] epsilon = '0': expected a positive, finite epsilon"),
        ("epsilon = 1.0\nn = 500", "epsilon = nan\nn = 500", "[synth] epsilon = 'nan': expected a positive, finite epsilon"),
        ("epsilon = 1.0\nn = 500", "epsilon = inf\nn = 500", "[synth] epsilon = 'inf': expected a positive, finite epsilon"),
        ("n = 500", "n = 0", "[synth] n = '0': expected an integer >= 1"),
        ("num_bins = 16", "num_bins = 0", "[synth] num_bins = '0': expected an integer >= 1"),
        ("seed = 42", "seed = -1", "[synth] seed = '-1': expected an integer >= 0"),
        ("epsilon = 0.5", "epsilon = -1", "[variant generated] epsilon = '-1': expected a positive, finite epsilon"),
        ("epsilon = 0.5", "epsilon = nan", "[variant generated] epsilon = 'nan': expected a positive, finite epsilon"),
        ("n = 300", "n = 0", "[variant generated] n = '0': expected an integer >= 1"),
        ("num_bins = 8", "num_bins = 0", "[variant generated] num_bins = '0': expected an integer >= 1"),
        ("seed = 7", "seed = -3", "[variant generated] seed = '-3': expected an integer >= 0"),
        ("base_seed = 3", "base_seed = -1", "[sweep] base_seed = '-1': expected an integer >= 0"),
        (
            "offset = 5\n",
            "offset = nan\n",
            "gauss comparator requires a finite offset and scale, got offset nan and scale 5.0",
        ),
        (
            "offset = 5\n",
            "offset = inf\n",
            "gauss comparator requires a finite offset and scale, got offset inf and scale 5.0",
        ),
        (
            "scale = 5\n",
            "scale = inf\n",
            "gauss comparator requires a finite offset and scale, got offset 5.0 and scale inf",
        ),
        ("k = 2.5", "k = inf", "outlier threshold k must be finite, got inf"),
        ("k = 2.5", "k = 1e400", "outlier threshold k must be finite, got inf"),
        ("k = 2.5", "k = nan", "outlier threshold k must be positive, got nan"),
    ],
    ids=[
        "synth-epsilon-negative",
        "synth-epsilon-zero",
        "synth-epsilon-nan",
        "synth-epsilon-inf",
        "synth-n-0",
        "synth-num_bins-0",
        "synth-seed-negative",
        "variant-epsilon-negative",
        "variant-epsilon-nan",
        "variant-n-0",
        "variant-num_bins-0",
        "variant-seed-negative",
        "sweep-base_seed-negative",
        "gauss-offset-nan",
        "gauss-offset-inf",
        "gauss-scale-inf",
        "outliers-k-inf",
        "outliers-k-overflow",
        "outliers-k-nan",
    ],
)
def test_generator_settings_and_gauss_parameters_checked_at_load(old, new, message):
    assert old in EVERY_KEY_CONFIG
    with pytest.raises(ConfigError) as caught:
        parse_config(EVERY_KEY_CONFIG.replace(old, new, 1))
    assert str(caught.value) == message


def test_smallest_generator_settings_accepted():
    text = (
        EVERY_KEY_CONFIG.replace("n = 500", "n = 1")
        .replace("num_bins = 16", "num_bins = 1")
        .replace("seed = 42", "seed = 0")
        .replace("epsilon = 0.5", "epsilon = 5e-324")
        .replace("base_seed = 3", "base_seed = 0")
    )
    cfg = parse_config(text)
    assert cfg.synth == SynthSettings(epsilon=1.0, n=1, num_bins=1, seed=0)
    assert cfg.variants[1].epsilon == 5e-324
    assert cfg.sweep.base_seed == 0
    assert parse_config(render_config(cfg)) == cfg
