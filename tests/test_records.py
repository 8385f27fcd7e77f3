"""The record contract: what every public record class promises its callers.

Each record compares by value, field by field (arrays by their elements,
mappings by their keys and then value by value), hashes when its fields do,
prints a dataclass-style ``repr``
without its bulky fields, refuses assignment and deletion, can be weakly
referenced, copies and pickles, takes its fields by position or keyword with
the same defaults, and validates on construction.
The expected ``repr`` strings are those the records printed as dataclasses.
"""

from __future__ import annotations

import copy
import importlib
import math
import pickle
import weakref
from types import MappingProxyType

import numpy as np
import pytest

import synthaudit
from synthaudit import (
    AttributeSchema,
    ComparatorKind,
    ComparatorSpec,
    ConfigError,
    Dataset,
    Kind,
    LinkageResult,
    NoisyHistogram,
    OutlierConfig,
    OutlierSet,
    QIConfig,
    QIRule,
    Role,
    ScoredPair,
    UtilityReport,
    detect_outliers,
)
from synthaudit.config import RunConfig, SweepSettings, SynthSettings, VariantSpec
from synthaudit.errors import Record

AGE = AttributeSchema("age", Kind.NUMERICAL, Role.QI)
HOME = AttributeSchema("home", Kind.CATEGORICAL)
SCHEMA = (AGE, HOME)
SCHEMA_REPR = (
    "(AttributeSchema(name='age', kind=<Kind.NUMERICAL: 'numerical'>, role=<Role.QI: 'qi'>), "
    "AttributeSchema(name='home', kind=<Kind.CATEGORICAL: 'categorical'>, role=<Role.NON_QI: 'non_qi'>))"
)
GAUSS = ComparatorSpec(ComparatorKind.GAUSS, 0.0, 2.0)
GAUSS_REPR = "ComparatorSpec(kind=<ComparatorKind.GAUSS: 'gauss'>, offset=0.0, scale=2.0)"
RULE = QIRule("age", GAUSS)
RULE_REPR = f"QIRule(name='age', comparator={GAUSS_REPR}, threshold=0.5)"
QI = QIConfig((RULE,))
OUTLIERS = OutlierConfig(3.0, ("age",))
OUTLIERS_REPR = "OutlierConfig(k=3.0, attributes=('age',), combine=<Combine.ANY: 'any'>, ddof=0)"
COUNTS, PROBABILITIES = np.array([1.0, 2.0]), np.array([0.25, 0.75])
SCORES = {"age": {"x": 1.0}}


def dataset(ages=(1.0, 2.0)) -> Dataset:
    return Dataset.from_columns(SCHEMA, {"age": list(ages), "home": ["a", "b"]})


def linkage_result(surface=(2, 5)) -> LinkageResult:
    return LinkageResult(np.array([0, 0, 3]), np.array([1, 2, 0]), {"age": np.ones(3)}, surface)


def outlier_set(z=3.5) -> OutlierSet:
    return OutlierSet(np.array([0]), MappingProxyType({"age": np.array([z])}))


# name: (build, build by keyword with the optional fields left out, their defaults,
#        an unequal record, repr, hashable, a construction that fails validation)
CASES = {
    "AttributeSchema": (
        lambda: AttributeSchema("home", Kind.CATEGORICAL, Role.NON_QI),
        lambda: AttributeSchema(kind=Kind.CATEGORICAL, name="home"),
        {"role": Role.NON_QI},
        lambda: AttributeSchema("home", Kind.CATEGORICAL, Role.QI),
        "AttributeSchema(name='home', kind=<Kind.CATEGORICAL: 'categorical'>, role=<Role.NON_QI: 'non_qi'>)",
        True,
        None,
    ),
    "ComparatorSpec": (
        lambda: ComparatorSpec(ComparatorKind.EXACT, None, None),
        lambda: ComparatorSpec(kind=ComparatorKind.EXACT),
        {"offset": None, "scale": None},
        lambda: ComparatorSpec(ComparatorKind.LEVENSHTEIN),
        "ComparatorSpec(kind=<ComparatorKind.EXACT: 'exact'>, offset=None, scale=None)",
        True,
        lambda: ComparatorSpec(ComparatorKind.GAUSS, offset=0.0),
    ),
    "QIRule": (
        lambda: QIRule("age", GAUSS, 0.5),
        lambda: QIRule(comparator=GAUSS, name="age"),
        {"threshold": 0.5},  # set by __post_init__ from the comparator
        lambda: QIRule("age", GAUSS, 0.25),
        RULE_REPR,
        True,
        lambda: QIRule("age", GAUSS, threshold=1.5),
    ),
    "QIConfig": (
        lambda: QIConfig((RULE,)),
        lambda: QIConfig(rules=(QIRule("age", GAUSS),)),
        {},
        lambda: QIConfig((QIRule("home", ComparatorSpec(ComparatorKind.EXACT)),)),
        f"QIConfig(rules=({RULE_REPR},))",
        True,
        lambda: QIConfig(rules=()),
    ),
    "OutlierConfig": (
        lambda: OutlierConfig(3.0, ("age",), synthaudit.Combine.ANY, 0),
        lambda: OutlierConfig(attributes=("age",), k=3.0),
        {"combine": synthaudit.Combine.ANY, "ddof": 0},
        lambda: OutlierConfig(3.0, ("age",), ddof=1),
        OUTLIERS_REPR,
        True,
        lambda: OutlierConfig(k=0.0, attributes=("age",)),
    ),
    "SynthSettings": (
        lambda: SynthSettings(1.0, 10, 32, 0),
        lambda: SynthSettings(n=10, epsilon=1.0),
        {"num_bins": 32, "seed": 0},
        lambda: SynthSettings(1.0, 10, seed=1),
        "SynthSettings(epsilon=1.0, n=10, num_bins=32, seed=0)",
        True,
        lambda: SynthSettings(epsilon=math.nan),
    ),
    "SweepSettings": (
        lambda: SweepSettings((0.5, 1.0), 1, 0),
        lambda: SweepSettings(grid=(0.5, 1.0)),
        {"repeats": 1, "base_seed": 0},
        lambda: SweepSettings((0.5, 1.0), repeats=2),
        "SweepSettings(grid=(0.5, 1.0), repeats=1, base_seed=0)",
        True,
        lambda: SweepSettings((0.5, 1.0), base_seed=-1),
    ),
    "VariantSpec": (
        lambda: VariantSpec("f", "f.csv", None, None, None, None, (("a", "1"),)),
        lambda: VariantSpec(tags=(("a", "1"),), name="f", file="f.csv"),
        {"epsilon": None, "seed": None, "n": None, "num_bins": None},
        lambda: VariantSpec("f", "f.csv"),
        "VariantSpec(name='f', file='f.csv', epsilon=None, seed=None, n=None, num_bins=None, tags=(('a', '1'),))",
        True,
        lambda: VariantSpec("f", "f.csv", epsilon=1.0),
    ),
    "RunConfig": (
        lambda: RunConfig(SCHEMA, None, None, None, None, None, (), False, (), None),
        lambda: RunConfig(schema=SCHEMA),
        dict(
            outliers=None, qi=None, synth=None, original=None, output_dir=None, ladder=(),
            restrict_variant_outliers=False, variants=(), sweep=None,
        ),
        lambda: RunConfig(SCHEMA, ladder=(("age",),)),
        f"RunConfig(schema={SCHEMA_REPR}, outliers=None, qi=None, synth=None, original=None, output_dir=None, "
        "ladder=(), restrict_variant_outliers=False, variants=(), sweep=None)",
        True,
        lambda: RunConfig(SCHEMA, qi=QI, ladder=(("age", "age"),)),
    ),
    "ScoredPair": (
        lambda: ScoredPair(1, 2, {"age": 1.0}),
        lambda: ScoredPair(scores={"age": 1.0}, synthetic=2, original=1),
        {},
        lambda: ScoredPair(1, 2, {"age": 0.5}),
        "ScoredPair(original=1, synthetic=2)",
        False,  # its scores are a dict
        None,
    ),
    "UtilityReport": (
        lambda: UtilityReport(SCORES, {"x": {"mean": 1.0}}),
        lambda: UtilityReport(aggregate={"x": {"mean": 1.0}}, per_attribute=SCORES),
        {},
        lambda: UtilityReport(SCORES, {"x": {"mean": 0.5}}),
        "UtilityReport(aggregate={'x': {'mean': 1.0}})",
        False,
        None,
    ),
    "NoisyHistogram": (
        lambda: NoisyHistogram("home", Kind.CATEGORICAL, ("a", "b"), COUNTS, PROBABILITIES),
        lambda: NoisyHistogram(
            probabilities=PROBABILITIES, noisy_counts=COUNTS, bins=("a", "b"), kind=Kind.CATEGORICAL, attribute="home"
        ),
        {},
        lambda: NoisyHistogram("home", Kind.CATEGORICAL, ("a", "c"), COUNTS, PROBABILITIES),
        "NoisyHistogram(attribute='home', kind=<Kind.CATEGORICAL: 'categorical'>, bins=('a', 'b'))",
        False,
        None,
    ),
    "Dataset": (
        dataset,
        lambda: Dataset(row_count=2, columns=dataset().columns, schema=SCHEMA),
        {},
        lambda: dataset((1.0, 3.0)),
        f"Dataset(schema={SCHEMA_REPR}, row_count=2)",
        False,
        lambda: Dataset(schema=(), columns={}, row_count=0),
    ),
    "LinkageResult": (
        linkage_result,
        lambda: LinkageResult(
            attack_surface=(2, 5), scores={"age": np.ones(3)}, synthetic=np.array([1, 2, 0]), original=np.array([0, 0, 3])
        ),
        {},
        lambda: linkage_result((2, 6)),
        "LinkageResult(original=array([0, 0, 3]), synthetic=array([1, 2, 0]), attack_surface=(2, 5))",
        False,
        None,
    ),
    "OutlierSet": (
        outlier_set,
        lambda: OutlierSet(z=MappingProxyType({"age": np.array([3.5])}), index=np.array([0])),
        {},
        lambda: outlier_set(4.0),
        "OutlierSet(index=array([0]))",
        False,
        None,
    ),
}


def test_every_record_class_is_covered():
    for module in ("audit", "config", "dp_synth", "utility"):  # every layer, the lowest ones through these
        importlib.import_module(f"synthaudit.{module}")
    records = {cls.__name__ for cls in Record.__subclasses__() if cls.__module__.startswith("synthaudit.")}
    assert records - {"_Key"} == set(CASES)


@pytest.mark.parametrize("name", CASES)
class TestRecordContract:
    def test_equality_and_hash(self, name):
        build, by_keyword, _, other, _, hashable, _ = CASES[name]
        first, second = build(), by_keyword()
        assert first is not second
        assert first == second and not first != second
        assert first != other() and not first == other()
        assert first != tuple(getattr(first, f) for f in first._fields)  # not a tuple
        if hashable:
            assert hash(first) == hash(second)
            assert len({first, second, other()}) == 2
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(first)

    def test_repr(self, name):
        build, by_keyword, _, _, expected, _, _ = CASES[name]
        assert repr(build()) == repr(by_keyword()) == expected

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record = CASES[name][0]()
        for field in (*record._fields, "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        assert CASES[name][1]() == record  # nothing changed

    def test_weak_reference(self, name):
        record = CASES[name][0]()
        ref = weakref.ref(record)
        assert ref() is record
        del record
        assert ref() is None

    def test_keyword_construction_gives_the_defaults(self, name):
        _, by_keyword, defaults, _, _, _, _ = CASES[name]
        record = by_keyword()
        assert {field: getattr(record, field) for field in defaults} == defaults

    def test_copy_and_pickle_rebuild_an_equal_record(self, name):
        record = CASES[name][0]()
        for rebuilt in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert rebuilt == record and type(rebuilt) is type(record)

    def test_equal_fields_in_distinct_objects_compare_equal(self, name):
        # a deep copy holds equal but distinct arrays and mappings
        record = CASES[name][0]()
        assert record == copy.deepcopy(record) and not record != copy.deepcopy(record)


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if case[6] is not None])
def test_validation_still_raises_config_error(name):
    with pytest.raises(ConfigError):
        CASES[name][6]()


@pytest.mark.parametrize("name, field", [("Dataset", "columns"), ("LinkageResult", "scores"), ("OutlierSet", "z")])
def test_a_rebuilt_columnar_record_stays_read_only(name, field):
    record = CASES[name][0]()
    for rebuilt in (record, pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        mapping = getattr(rebuilt, field)
        assert isinstance(mapping, MappingProxyType)
        with pytest.raises(TypeError):
            mapping["income"] = np.zeros(1)
        with pytest.raises(TypeError):
            del mapping["age"]
        arrays = [*mapping.values(), *(v for v in rebuilt._values() if isinstance(v, np.ndarray))]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[-1]
    assert record == CASES[name][1]()  # nothing changed


def test_a_rebuilt_run_config_keeps_its_ladder_subsets():
    home = QIRule("home", ComparatorSpec(ComparatorKind.EXACT))
    cfg = RunConfig(SCHEMA, qi=QIConfig((RULE, home)), ladder=(("home",), ("home", "age")))
    assert cfg.subsets == (QIConfig((home,)), QIConfig((RULE, home)))  # configured order within a subset
    for rebuilt in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert rebuilt.subsets == cfg.subsets
    with pytest.raises(AttributeError):
        cfg.subsets = ()
    assert RunConfig(SCHEMA, ladder=(("age",),)).subsets == ()  # without [qi] a ladder builds nothing


def test_a_dataset_cannot_change_under_its_cached_outliers():
    # a stored derived value stays valid only while the dataset cannot change
    schema = (AttributeSchema("x", Kind.NUMERICAL, Role.QI),)
    ds = Dataset.from_columns(schema, {"x": [0.0] * 9 + [100.0]})
    cfg = OutlierConfig(2.0, ("x",))
    assert detect_outliers(ds, cfg).index.tolist() == [9]
    with pytest.raises(TypeError):
        ds.columns["x"] = np.array([100.0] + [0.0] * 9)
    assert detect_outliers(ds, cfg).index.tolist() == [9]
    result = linkage_result()
    with pytest.raises(TypeError):
        result.scores["age"] = np.zeros(3)
    assert result.scores["age"].tolist() == [1.0, 1.0, 1.0]


def test_histograms_with_bin_edges_compare_by_value():
    def numeric(edges=(0.0, 1.0, 2.0)):
        return NoisyHistogram("age", Kind.NUMERICAL, np.array(edges), COUNTS.copy(), PROBABILITIES.copy())

    assert numeric() == numeric()
    assert numeric() != numeric((0.0, 1.0, 3.0))
    assert numeric() != NoisyHistogram("age", Kind.NUMERICAL, (0.0, 1.0, 2.0), COUNTS, PROBABILITIES * 2)


def test_constructor_refuses_wrong_arguments():
    with pytest.raises(TypeError, match=r"missing required arguments \['kind'\]"):
        AttributeSchema("age")
    with pytest.raises(TypeError, match="takes at most 3 arguments, got 4"):
        AttributeSchema("age", Kind.NUMERICAL, Role.QI, "extra")
    with pytest.raises(TypeError, match=r"unexpected or repeated arguments \['colour'\]"):
        AttributeSchema("age", Kind.NUMERICAL, colour="red")
    with pytest.raises(TypeError, match=r"unexpected or repeated arguments \['name'\]"):
        AttributeSchema("age", Kind.NUMERICAL, name="age")  # given twice
    with pytest.raises(TypeError):
        ScoredPair(1, 2)


def test_defaults_and_hidden_name_only_fields():
    with pytest.raises(TypeError, match=r"\['colour'\], which are not fields"):
        type("Bad", (Record,), {"__slots__": {"name": "str"}, "_defaults": {"colour": None}})
    with pytest.raises(TypeError, match=r"\['_state'\], which are not fields"):
        type("Bad", (Record,), {"__slots__": {"name": "str", "_state": "int"}, "_hidden": frozenset({"_state"})})


def test_match_counts_are_the_runs_of_the_sorted_originals():
    result = LinkageResult(np.array([0, 2, 2, 5, 5, 5]), np.arange(6), {}, (3, 6))
    counts = result.per_original_match_count
    assert counts == {0: 1, 2: 2, 5: 3} and list(counts) == [0, 2, 5]
    assert all(type(k) is int and type(v) is int for k, v in counts.items())
    assert (result.unique_match_count, result.distinct_original_count) == (1, 3)
    single = LinkageResult(np.array([7]), np.array([1]), {}, (1, 1))
    assert single.per_original_match_count == {7: 1}
    empty = LinkageResult(np.empty(0, np.int64), np.empty(0, np.int64), {}, (0, 0))
    assert empty.per_original_match_count == {} and empty.unique_match_count == 0


def test_match_counts_equal_np_unique_on_random_sorted_originals():
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 50, 1000):
        original = np.sort(rng.integers(0, size // 2 + 2, size))
        result = LinkageResult(original, np.zeros(size, np.int64), {}, (0, size))
        values, sizes = np.unique(original, return_counts=True)
        assert result.per_original_match_count == dict(zip(values.tolist(), sizes.tolist()))


def test_matches_out_of_original_order_are_refused():
    # the counts are run lengths, so an unsorted column would count an original twice
    with pytest.raises(ValueError, match="ordered by original index"):
        LinkageResult(np.array([5, 2, 5]), np.arange(3), {}, (2, 3))
