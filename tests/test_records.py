"""The seven frozen records: repr, equality, hash, immutability, copy and pickle."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from derham_lft import (
    ClassificationReport,
    DeRhamSystem,
    DimensionBounds,
    MeasureNode,
    MoebiusMatrix,
    SamplePath,
    StationarityReport,
    apply_mobius,
    classify,
    dimension_bounds,
    evaluate,
    force_approx,
    inverse_evaluate,
    lebesgue_system,
    sample_path,
    stationarity_check,
    walk_system,
    walk_tree,
)


def _instances():
    walk1 = walk_system(1)
    leb13 = lebesgue_system(Fraction(1, 3))
    return {
        "MoebiusMatrix": MoebiusMatrix(1, Fraction(1, 2), 0, 2.5),
        "DeRhamSystem": walk1,
        "DimensionBounds": dimension_bounds(leb13),
        "ClassificationReport": classify(leb13),
        "MeasureNode": list(walk_tree(walk1, 1))[2],
        "SamplePath": sample_path(lebesgue_system(Fraction(1, 4)), 4, seed=7),
        "StationarityReport": stationarity_check(walk1, 2, 0),
    }


REPRS = {
    "MoebiusMatrix": (
        "MoebiusMatrix(a=Fraction(1, 1), b=Fraction(1, 2), c=Fraction(0, 1), d=2.5)"
    ),
    "DeRhamSystem": (
        "DeRhamSystem(A0=MoebiusMatrix(a=Fraction(1, 2), b=Fraction(0, 1), "
        "c=Fraction(-1, 4), d=Fraction(1, 1)), A1=MoebiusMatrix(a=Fraction(0, 1), "
        "b=Fraction(1, 2), c=Fraction(-1, 4), d=Fraction(3, 4)), alpha=Fraction(-1, 2), "
        "beta=Fraction(0, 1), gamma=Fraction(3, 2), mode='exact')"
    ),
    "DimensionBounds": (
        "DimensionBounds(entropy_max=0.6365141682948128, entropy_min=0.6365141682948128, "
        "dim_upper=0.9182958340544894, dim_lower=0.9182958340544894, "
        "argmax_location=Fraction(0, 1))"
    ),
    "ClassificationReport": (
        "ClassificationReport(ac_condition_0=False, ac_condition_1=False, "
        "verdict='singular', exactness='exact', c0=None, "
        "bounds=DimensionBounds(entropy_max=0.6365141682948128, "
        "entropy_min=0.6365141682948128, dim_upper=0.9182958340544894, "
        "dim_lower=0.9182958340544894, argmax_location=Fraction(0, 1)), "
        "defect_bound=0.9985126791665717)"
    ),
    "MeasureNode": "MeasureNode(bits=(1,), mass=Fraction(1, 3), state=Fraction(-1, 3))",
    "SamplePath": (
        "SamplePath(digits=array([1, 1, 1, 0], dtype=uint8), states=[Fraction(0, 1), "
        "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)], seed=7)"
    ),
    "StationarityReport": (
        "StationarityReport(depth=2, max_residual_recursion=Fraction(0, 1), "
        "max_residual_mass=Fraction(0, 1), verdict_transfer=True)"
    ),
}

#: The fields each record compares, hashes and shows, in order.
FIELDS = {
    "MoebiusMatrix": ("a", "b", "c", "d"),
    "DeRhamSystem": ("A0", "A1", "alpha", "beta", "gamma", "mode"),
    "DimensionBounds": ("entropy_max", "entropy_min", "dim_upper", "dim_lower", "argmax_location"),
    "ClassificationReport": (
        "ac_condition_0", "ac_condition_1", "verdict", "exactness", "c0", "bounds", "defect_bound"
    ),
    "MeasureNode": ("bits", "mass", "state"),
    "SamplePath": ("digits", "states", "seed"),
    "StationarityReport": (
        "depth", "max_residual_recursion", "max_residual_mass", "verdict_transfer"
    ),
}

HASHABLE = [name for name in REPRS if name != "SamplePath"]


@pytest.mark.parametrize("name", list(REPRS))
def test_repr(name):
    record = _instances()[name]
    assert type(record).__name__ == name
    assert repr(record) == REPRS[name]


@pytest.mark.parametrize("name", HASHABLE)
def test_equality_and_hash_follow_the_fields(name):
    first, second = _instances()[name], _instances()[name]
    assert first is not second
    assert first == second and not first != second
    fields = tuple(getattr(first, f) for f in FIELDS[name])
    assert hash(first) == hash(second) == hash(fields)
    assert first != fields  # another type never compares equal
    assert (first == fields) is False


def test_a_changed_field_breaks_equality():
    m = MoebiusMatrix(1, 2, 0, 3)
    assert m == MoebiusMatrix(Fraction(1), 2, 0, 3)
    assert m != MoebiusMatrix(1, 2, 0, 4)
    assert walk_system(1) != force_approx(walk_system(1))
    report = StationarityReport(2, Fraction(0), Fraction(0), True)
    assert report == stationarity_check(walk_system(1), 2, 0)
    assert report != StationarityReport(3, Fraction(0), Fraction(0), True)
    assert ClassificationReport(True, True, "x", "exact") == ClassificationReport(
        True, True, "x", "exact", c0=None, bounds=None, defect_bound=None
    )


def test_measure_node_ignores_its_system():
    walk1, leb13 = walk_system(1), lebesgue_system(Fraction(1, 3))
    a = MeasureNode((0,), Fraction(1, 3), Fraction(0), walk1)
    b = MeasureNode((0,), Fraction(1, 3), Fraction(0), leb13)
    assert a.system is walk1 and b.system is leb13
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "MeasureNode(bits=(0,), mass=Fraction(1, 3), state=Fraction(0, 1))"
    assert a != MeasureNode((1,), Fraction(1, 3), Fraction(0), walk1)


def test_sample_path_is_unhashable():
    with pytest.raises(TypeError):
        hash(_instances()["SamplePath"])


@pytest.mark.parametrize("name", list(REPRS))
def test_attributes_are_read_only(name):
    record = _instances()[name]
    field = FIELDS[name][0]
    before = getattr(record, field)
    for attr in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert getattr(record, field) is before
    assert not hasattr(record, "not_a_field")


def _same_record(got, want, name):
    assert type(got) is type(want)
    if name == "SamplePath":  # arrays make == ambiguous
        assert got.digits.tolist() == want.digits.tolist()
        assert got.digits.dtype == want.digits.dtype
        assert list(got.states) == list(want.states)
        assert got.seed == want.seed
    else:
        assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", list(REPRS))
def test_copy_and_pickle_round_trip(name):
    record = _instances()[name]
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        _same_record(clone, record, name)
    if name == "MeasureNode":
        clone = pickle.loads(pickle.dumps(record))
        assert clone.system == record.system
        assert clone.word == record.word


def test_pickled_system_keeps_working():
    system = walk_system(1)
    system.word_basis  # a cached value rides along in the pickle
    clone = pickle.loads(pickle.dumps(system))
    assert clone == system and hash(clone) == hash(system)
    assert clone.split_value == system.split_value
    assert clone.word_basis.m0 == system.word_basis.m0
    assert clone.word_basis.split == system.split_value
    # The basis pickles as its mode's class and the data in its slots.
    assert type(clone.word_basis) is type(system.word_basis)
    assert (clone.word_basis.k0, clone.word_basis.k1) == (Fraction(1, 4), Fraction(1, 4))
    assert clone.word_basis.evaluate(Fraction(1, 3), 1e-9, 64) == system.word_basis.evaluate(
        Fraction(1, 3), 1e-9, 64
    )


def test_pickled_float_system_leaves_its_prefix_behind():
    # Float queries build the basis's prefix of the top word-tree levels;
    # a pickle or copy carries the basis without it, and the clone builds
    # its own on its first query, with the same results bit for bit.
    system = walk_system(0.5)
    points = (0.1, 1 / 3, 0.7, 0.999)

    def queries(sys):
        return [
            (evaluate(sys, z, 1e-12).hex(), inverse_evaluate(sys, z, 1e-12).hex())
            for z in points
        ]

    want = queries(system)
    assert system.word_basis._prefix is not None
    data = pickle.dumps(system)
    assert b"_Prefix" not in data and len(data) < 4096
    for clone in (pickle.loads(data), copy.deepcopy(system)):
        assert clone.word_basis._prefix is None
        assert queries(clone) == want
        assert clone.word_basis._prefix is not None
    assert copy.copy(system.word_basis)._prefix is None


def test_system_cached_properties_cache():
    system = walk_system(Fraction(3, 7))
    assert "split_value" not in vars(system)
    for name in ("tA0", "tA1", "word_basis", "balanced_state"):
        assert name not in vars(system)
        first = getattr(system, name)
        assert vars(system)[name] is first
        assert getattr(system, name) is first
    # The basis is built at the system's split, which its read caches.
    assert vars(system)["split_value"] is system.word_basis.split
    assert system.split_value == apply_mobius(system.A0, 1)
    # Cached values are not fields: equality and hash ignore them.
    assert system == walk_system(Fraction(3, 7))
    assert hash(system) == hash(walk_system(Fraction(3, 7)))


def test_moebius_matrix_coerces_exact_entries():
    m = MoebiusMatrix(1, 2, 0, 3)
    assert [type(e) for e in m.entries] == [Fraction] * 4
    assert type(MoebiusMatrix(1, 2.0, 0, 3).b) is float
    with pytest.raises(TypeError):
        MoebiusMatrix(1, "2", 0, 3)
    assert MoebiusMatrix(a=1, b=2, c=0, d=3) == m


def test_keyword_construction_and_defaults():
    bounds = DimensionBounds(
        entropy_max=0.5, entropy_min=0.25, dim_upper=0.75, dim_lower=0.5, argmax_location=0
    )
    report = ClassificationReport(
        ac_condition_0=False, ac_condition_1=True, verdict="singular", exactness="approx",
        bounds=bounds,
    )
    assert (report.c0, report.bounds, report.defect_bound) == (None, bounds, None)
    path = SamplePath(digits=None, states=[], seed=3)
    assert (path.digits, path.states, path.seed) == (None, [], 3)


#: The records whose __init__ _Record builds from their _fields.
GENERATED = {
    "DeRhamSystem": DeRhamSystem,
    "DimensionBounds": DimensionBounds,
    "ClassificationReport": ClassificationReport,
    "SamplePath": SamplePath,
    "StationarityReport": StationarityReport,
}

#: Defaults of the generated constructors; every other field is required.
DEFAULTS = {"ClassificationReport": {"c0": None, "bounds": None, "defect_bound": None}}


@pytest.mark.parametrize("name", list(GENERATED))
def test_generated_constructor_signature(name):
    cls = GENERATED[name]
    assert "def __init__" not in inspect.getsource(cls)
    params = inspect.signature(cls).parameters
    assert tuple(params) == FIELDS[name]
    defaults = DEFAULTS.get(name, {})
    for param in params.values():
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert param.default is defaults.get(param.name, inspect.Parameter.empty)
        assert param.annotation == cls.__annotations__[param.name]
    assert cls.__init__.__qualname__ == f"{name}.__init__"
    assert cls.__init__.__module__ == cls.__module__


@pytest.mark.parametrize("name", list(GENERATED))
def test_generated_constructor_rejects_bad_calls(name):
    cls, record, fields = GENERATED[name], _instances()[name], FIELDS[name]
    values = [getattr(record, f) for f in fields]
    _same_record(cls(*values), record, name)
    _same_record(cls(**dict(zip(fields, values))), record, name)
    bad_calls = (
        ((), dict(zip(fields[1:], values[1:]))),  # the first field missing
        ((*values, 0), {}),  # one positional argument too many
        (values, {"not_a_field": 0}),
        (values, {fields[0]: values[0]}),  # the first field twice
    )
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\)"):
            cls(*args, **kwargs)
