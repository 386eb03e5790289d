"""The value-type contract of the package's eleven record classes.

Each record is a frozen value: it compares equal by class and fields,
hashes like its fields, reprs as ``Name(field=value, ...)``, refuses
assignment and deletion with ``AttributeError``, survives ``pickle``,
``copy.copy`` and ``copy.deepcopy``, takes its fields as constructor
parameters in order, and validates them with the messages pinned here.
``_asdict()`` and ``_replace()`` work as on a named tuple, and ``_replace``
validates through the constructor.
"""

import copy
import inspect
import math
import pickle
import re

import pytest

from lapdetect import (
    AttackSpec,
    BiasInterval,
    Dataset,
    DetectionTest,
    KlReport,
    LaplaceDist,
    MechanismConfig,
    RngStream,
    RocCurve,
    RocPoint,
    SimConfig,
    SimReport,
    TailDirection,
)

nan, inf = math.nan, math.inf
RIGHT = TailDirection.RIGHT
UNIT = MechanismConfig(s=1.0, eps=1.0)
CFG = MechanismConfig(s=1.3, eps=0.5, theta=1.5, mu0=0.7)
CFG_REPR = "MechanismConfig(s=1.3, eps=0.5, theta=1.5, mu0=0.7)"
POINTS = (RocPoint(0.25, 1.5, None, 0.5), RocPoint(0.75, -1.5, None, 0.875))
POINTS_REPR = (
    "(RocPoint(alpha=0.25, k1=1.5, k2=None, power=0.5), "
    "RocPoint(alpha=0.75, k1=-1.5, k2=None, power=0.875))"
)


def _roc_point(alpha, power):
    return RocPoint(alpha, 0.0, None, power)


# (class, fields, expected repr, another value of the class)
VALUES = [
    (RngStream, (5, 3), "RngStream(seed=5, stream_id=3)", (5, 4)),
    (LaplaceDist, (0.5, 1.5), "LaplaceDist(mu=0.5, b=1.5)", (0.5, 2.0)),
    (
        MechanismConfig,
        (1.3, 0.5, 1.5, 0.7),
        CFG_REPR,
        (1.3, 0.5, 1.5, 0.0),
    ),
    (AttackSpec, (1.3,), "AttackSpec(x_a=1.3)", (-1.3,)),
    (Dataset, ((1.0, 2.0), 2.0), "Dataset(records=(1.0, 2.0), bound=2.0)", ((1.0,), 2.0)),
    (
        DetectionTest,
        (0.1, UNIT, math.log(0.1), -math.log(0.1)),
        "DetectionTest(alpha=0.1, cfg=MechanismConfig(s=1.0, eps=1.0, theta=1.0, mu0=0.0), "
        "lo=-2.3025850929940455, hi=2.3025850929940455)",
        (0.1, UNIT, math.log(0.2), inf),
    ),
    (
        RocCurve,
        (RIGHT, POINTS, 0.5625),
        f"RocCurve(direction=<TailDirection.RIGHT: 'right'>, points={POINTS_REPR}, auc=0.5625)",
        (RIGHT, POINTS[:1], 0.5625),
    ),
    (BiasInterval, (-2.5, 2.5), "BiasInterval(lo=-2.5, hi=2.5)", (-2.5, 3.0)),
    (
        KlReport,
        (0.25, 0.375, 1.0, 2.75, False),
        "KlReport(d_closed=0.25, d_quadrature=0.375, epsilon=1.0, bound=2.75, violated=False)",
        (0.25, 0.375, 1.0, 2.75, True),
    ),
    (
        SimConfig,
        (CFG, AttackSpec(1.0), 0.1, RIGHT, 100, 7),
        f"SimConfig(cfg={CFG_REPR}, attack=AttackSpec(x_a=1.0), alpha=0.1, "
        "direction=<TailDirection.RIGHT: 'right'>, n_trials=100, seed=7)",
        (CFG, AttackSpec(1.0), 0.1, RIGHT, 100, 8),
    ),
    (
        SimReport,
        (0.125, 0.25, 0.1, 0.5, 0.0625, 0.03125, True),
        "SimReport(alpha_hat=0.125, power_hat=0.25, alpha_closed=0.1, power_closed=0.5, "
        "half_width_alpha=0.0625, half_width_power=0.03125, passed=True)",
        (0.125, 0.25, 0.1, 0.5, 0.0625, 0.03125, False),
    ),
]

# Constructor parameters in order, with their defaults (None: required).
SIGNATURES = {
    RngStream: [("seed", None), ("stream_id", 0)],
    LaplaceDist: [("mu", None), ("b", None)],
    MechanismConfig: [("s", None), ("eps", None), ("theta", 1.0), ("mu0", 0.0)],
    AttackSpec: [("x_a", None)],
    Dataset: [("records", ()), ("bound", 1.0)],
    DetectionTest: [("alpha", None), ("cfg", None), ("lo", None), ("hi", None)],
    RocCurve: [("direction", None), ("points", None), ("auc", None)],
    BiasInterval: [("lo", None), ("hi", None)],
    KlReport: [
        ("d_closed", None),
        ("d_quadrature", None),
        ("epsilon", None),
        ("bound", None),
        ("violated", None),
    ],
    SimConfig: [
        ("cfg", None),
        ("attack", None),
        ("alpha", None),
        ("direction", None),
        ("n_trials", None),
        ("seed", None),
    ],
    SimReport: [
        ("alpha_hat", None),
        ("power_hat", None),
        ("alpha_closed", None),
        ("power_closed", None),
        ("half_width_alpha", None),
        ("half_width_power", None),
        ("passed", None),
    ],
}

# (class, arguments, the exact ValueError message)
INVALID = [
    (LaplaceDist, (nan, 1.0), "location must be finite, got mu=nan"),
    (LaplaceDist, (inf, 1.0), "location must be finite, got mu=inf"),
    (LaplaceDist, (0.0, 0.0), "scale must be positive and finite, got b=0.0"),
    (LaplaceDist, (0.0, -1.0), "scale must be positive and finite, got b=-1.0"),
    (LaplaceDist, (0.0, inf), "scale must be positive and finite, got b=inf"),
    (LaplaceDist, (0.0, nan), "scale must be positive and finite, got b=nan"),
    (MechanismConfig, (nan, 1.0), "s must be finite, got s=nan"),
    (MechanismConfig, (1.0, inf), "eps must be finite, got eps=inf"),
    (MechanismConfig, (1.0, 1.0, nan), "theta must be finite, got theta=nan"),
    (MechanismConfig, (1.0, 1.0, 1.0, -inf), "mu0 must be finite, got mu0=-inf"),
    (MechanismConfig, (0.0, 1.0), "sensitivity must be positive, got s=0.0"),
    (MechanismConfig, (1.0, -1.0), "privacy parameter must be positive, got eps=-1.0"),
    (MechanismConfig, (1.0, 1.0, 0.5), "scale inflation must be >= 1, got theta=0.5"),
    (
        MechanismConfig,
        (1e-300, 1e300),
        "noise scale s/eps must be positive and finite, got s=1e-300, eps=1e+300, theta=1.0",
    ),
    (
        MechanismConfig,
        (1e300, 1.0, 1e10),
        "noise scale s/eps must be positive and finite, got s=1e+300, eps=1.0, "
        "theta=10000000000.0",
    ),
    (AttackSpec, (nan,), "attack bias must be finite, got x_a=nan"),
    (AttackSpec, (-inf,), "attack bias must be finite, got x_a=-inf"),
    (Dataset, ((), -1.0), "record bound must be nonnegative, got -1.0"),
    (Dataset, ((), nan), "record bound must be nonnegative, got nan"),
    (Dataset, ((1.0, 3.0), 2.0), "record 1 = 3.0 outside [0, 2.0]"),
    (Dataset, ((-0.5,), 2.0), "record 0 = -0.5 outside [0, 2.0]"),
    (Dataset, ((nan,), 2.0), "record 0 = nan outside [0, 2.0]"),
    (DetectionTest, (0.1, UNIT, nan, inf), "threshold offset must be finite, got nan"),
    (DetectionTest, (0.1, UNIT, -inf, inf), "threshold offset must be finite, got -inf"),
    (DetectionTest, (0.1, UNIT, -1.0, 2.0), "need (-h, h) with half-width h >= 0, got (-1.0, 2.0)"),
    (
        DetectionTest,
        (0.1, UNIT, -inf, 1.0),
        "threshold(s) give size 0.18393972058572117, which is not alpha=0.1",
    ),
    (
        DetectionTest,
        (nan, UNIT, -inf, 1.0),
        "threshold(s) give size 0.18393972058572117, which is not alpha=nan",
    ),
    (RocCurve, (RIGHT, (_roc_point(nan, 0.5),), 0.5), "ROC sizes and powers must not be NaN"),
    (RocCurve, (RIGHT, (_roc_point(0.5, nan),), 0.5), "ROC sizes and powers must not be NaN"),
    (
        RocCurve,
        (RIGHT, (_roc_point(0.5, 0.5), _roc_point(0.5, 0.6)), 0.5),
        "ROC grid sizes must be strictly increasing, without NaN",
    ),
    (
        RocCurve,
        (RIGHT, (_roc_point(0.5, 0.5), _roc_point(0.6, 0.4)), 0.5),
        "ROC powers must be nondecreasing in alpha, without NaN",
    ),
    (RocCurve, (RIGHT, (_roc_point(0.5, 0.5),), 1.5), "AUC must lie in [0, 1], got 1.5"),
    (RocCurve, (RIGHT, (_roc_point(0.5, 0.5),), nan), "AUC must lie in [0, 1], got nan"),
    (SimConfig, (UNIT, AttackSpec(1.0), 0.1, RIGHT, 0, 1), "need at least one trial, got 0"),
    (RngStream, (-1,), "seed must lie in [0, 2^64), got seed=-1"),
    (RngStream, (2**64,), "seed must lie in [0, 2^64), got seed=18446744073709551616"),
    (RngStream, (0, -1), "stream_id must lie in [0, 2^64), got stream_id=-1"),
]

# (class, one invalid change to its VALUES record, the exact ValueError message)
REPLACE_INVALID = [
    (RngStream, {"seed": -1}, "seed must lie in [0, 2^64), got seed=-1"),
    (LaplaceDist, {"b": 0.0}, "scale must be positive and finite, got b=0.0"),
    (MechanismConfig, {"mu0": inf}, "mu0 must be finite, got mu0=inf"),
    (MechanismConfig, {"theta": 0.5}, "scale inflation must be >= 1, got theta=0.5"),
    (AttackSpec, {"x_a": nan}, "attack bias must be finite, got x_a=nan"),
    (Dataset, {"bound": 1.5}, "record 1 = 2.0 outside [0, 1.5]"),
    (DetectionTest, {"hi": nan}, "threshold offset must be finite, got nan"),
    (
        DetectionTest,
        {"alpha": 0.2},
        "threshold(s) give size 0.10000000000000002, which is not alpha=0.2",
    ),
    (
        RocCurve,
        {"points": POINTS[::-1]},
        "ROC grid sizes must be strictly increasing, without NaN",
    ),
    (RocCurve, {"auc": 1.5}, "AUC must lie in [0, 1], got 1.5"),
    (SimConfig, {"n_trials": 0}, "need at least one trial, got 0"),
]


def _ids(cases):
    return [case[0].__name__ for case in cases]


def test_every_record_type_is_covered():
    assert [case[0] for case in VALUES] == list(SIGNATURES)


@pytest.mark.parametrize("cls, fields, text, other", VALUES, ids=_ids(VALUES))
class TestValueType:
    def test_repr(self, cls, fields, text, other):
        assert repr(cls(*fields)) == text
        assert str(cls(*fields)) == text

    def test_equality_and_hash(self, cls, fields, text, other):
        a, b = cls(*fields), cls(*fields)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != cls(*other)
        assert a != fields and a != object()

    def test_fields_read_back_in_order(self, cls, fields, text, other):
        value = cls(*fields)
        names = [name for name, _ in SIGNATURES[cls]]
        assert tuple(getattr(value, name) for name in names) == fields
        assert cls.__match_args__ == tuple(names)

    def test_frozen(self, cls, fields, text, other):
        value = cls(*fields)
        name = SIGNATURES[cls][0][0]
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.no_such_field = 1.0
        assert value == cls(*fields)

    def test_pickle_and_copy_round_trip(self, cls, fields, text, other):
        value = cls(*fields)
        for twin in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(twin) is cls
            assert twin == value and repr(twin) == text

    def test_asdict_follows_fields_one_level_deep(self, cls, fields, text, other):
        value = cls(*fields)
        d = value._asdict()
        assert list(d) == list(cls._fields) == [name for name, _ in SIGNATURES[cls]]
        # Values are the fields themselves: a nested record stays a record.
        assert all(d[name] is getattr(value, name) for name in cls._fields)

    def test_replace(self, cls, fields, text, other):
        value = cls(*fields)
        twin = value._replace()
        assert type(twin) is cls and twin is not value
        assert twin == value and repr(twin) == text
        changes = {name: o for name, f, o in zip(cls._fields, fields, other) if f != o}
        assert value._replace(**changes) == cls(*other)

    def test_signature(self, cls, fields, text, other):
        params = inspect.signature(cls).parameters.values()
        empty = inspect.Parameter.empty
        got = [(p.name, None if p.default is empty else p.default) for p in params]
        assert got == SIGNATURES[cls]
        assert cls(**dict(zip(dict(SIGNATURES[cls]), fields))) == cls(*fields)


def test_equality_needs_the_same_class():
    assert BiasInterval(1.0, 2.0) != LaplaceDist(1.0, 2.0)
    assert LaplaceDist(1.0, 2.0) != BiasInterval(1.0, 2.0)
    assert AttackSpec(1.0) != (1.0,)
    assert BiasInterval(1.0, 2.0) != (1.0, 2.0)


def test_numbers_are_stored_as_floats():
    assert repr(LaplaceDist(1, 2)) == "LaplaceDist(mu=1.0, b=2.0)"
    assert repr(MechanismConfig(2, 4)) == "MechanismConfig(s=2.0, eps=4.0, theta=1.0, mu0=0.0)"
    assert repr(AttackSpec(-3)) == "AttackSpec(x_a=-3.0)"
    assert repr(Dataset([1, 2], 2)) == "Dataset(records=(1.0, 2.0), bound=2)"


@pytest.mark.parametrize("cls, args, message", INVALID, ids=_ids(INVALID))
def test_validation_messages(cls, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*args)


def test_every_validating_type_is_covered_by_replace():
    assert {case[0] for case in REPLACE_INVALID} == {case[0] for case in INVALID}


@pytest.mark.parametrize("cls, changes, message", REPLACE_INVALID, ids=_ids(REPLACE_INVALID))
def test_replace_raises_the_constructor_message(cls, changes, message):
    value = cls(*{case[0]: case[1] for case in VALUES}[cls])
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=pattern):
        value._replace(**changes)
    with pytest.raises(ValueError, match=pattern):
        cls(**{**value._asdict(), **changes})
