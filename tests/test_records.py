"""The closed-form records are immutable named tuples: every way of building
one runs its checks, and each keeps the repr and hash of the frozen
dataclass it replaced.  ``DerivedConstants`` and ``GaussianIso`` check
nothing themselves (``gaussian_iso`` checks the law's parameters)."""

import copy
import json
import math
import pickle
import re

import numpy as np
import pytest

from hypoguard import BernsteinPair, DerivedConstants, HypoParams, ObservableStats
from hypoguard.catalog import GaussianIso

# record type, valid values and their repr
RECORDS = [
    (BernsteinPair, (2.0, 1.0), "BernsteinPair(v=2.0, b=1.0)"),
    (HypoParams, (1.0, 0.5, 1.0, 0.3), "HypoParams(lambda_p=1.0, lambda_q=0.5, R0=1.0, eps=0.3)"),
    (DerivedConstants, (0.25, 0.8, 1.1, 5.0),
     "DerivedConstants(Lambda=0.25, c=0.8, C=1.1, alpha=5.0)"),
    (ObservableStats, (0.5, 0.1, 1.0), "ObservableStats(mean=0.5, variance=0.1, sup_norm=1.0)"),
    (GaussianIso, (3, 2.0, 0.5), "GaussianIso(dim=3, h=2.0, beta=0.5)"),
]
VALID = {cls: values for cls, values, _ in RECORDS}
# record type, field, a value its checks reject and their message
BAD = [
    (BernsteinPair, "v", -1.0, "variance proxy v must be finite and >= 0, got -1.0"),
    (BernsteinPair, "b", math.nan, "scale b must be finite and >= 0, got nan"),
    (HypoParams, "lambda_p", math.inf, "lambda_p must be finite and > 0, got inf"),
    (HypoParams, "lambda_q", 1.5, "lambda_q must be in (0, 1], got 1.5"),
    (HypoParams, "R0", -1.0, "R0 must be finite and >= 0, got -1.0"),
    (HypoParams, "eps", 1.0, "eps must be in (0, 1), got 1.0"),
    (ObservableStats, "mean", math.nan, "mean must be finite, got nan"),
    (ObservableStats, "variance", -0.1, "variance must be >= 0, got -0.1"),
    (ObservableStats, "sup_norm", 0.1, "variance 0.1 exceeds sup_norm^2 = 0.010000000000000002"),
]
PATHS = ["positional", "keyword", "_make", "_replace", "copy", "deepcopy", "pickle"]


def build(path: str, cls, values: tuple, **changes):
    """A ``cls`` record of ``values`` with ``changes``, built by ``path``; the
    copy and pickle paths copy a record made by ``tuple.__new__``, past the checks."""
    fields = {**dict(zip(cls._fields, values)), **changes}
    if path == "positional":
        return cls(*fields.values())
    if path == "keyword":
        return cls(**fields)
    if path == "_make":
        return cls._make(fields.values())
    if path == "_replace":
        return cls(*values)._replace(**changes)
    unchecked = tuple.__new__(cls, fields.values())
    if path == "pickle":
        return pickle.loads(pickle.dumps(unchecked))
    return getattr(copy, path)(unchecked)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("cls, field, value, message", BAD,
                         ids=lambda x: x.__name__ if isinstance(x, type) else None)
def test_every_construction_path_runs_the_checks(path, cls, field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(path, cls, VALID[cls], **{field: value})


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("cls, values, text", RECORDS, ids=lambda x: getattr(x, "__name__", None))
def test_every_construction_path_builds_the_same_record(path, cls, values, text):
    record = build(path, cls, values)
    assert type(record) is cls and record == cls(*values)


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=lambda x: getattr(x, "__name__", None))
def test_record_is_immutable_with_the_dataclass_repr_and_hash(cls, values, text):
    record = cls(*values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    with pytest.raises(AttributeError):  # no instance dict either
        record.extra = 1.0
    assert repr(record) == text
    # a frozen dataclass hashed the tuple of its fields; a record now is that
    # tuple, so it also compares equal to it
    assert hash(record) == hash(values)
    assert record == values and record._asdict() == dict(zip(cls._fields, values))


@pytest.mark.parametrize("path", ["keyword", "_replace", "pickle"])
def test_observable_stats_hold_python_floats(path):
    stats = build(path, ObservableStats, (0.5, 0.1, 1.0), mean=np.float64(0.25),
                  variance=np.float64(0.125), sup_norm=np.int64(1))
    assert all(type(value) is float for value in stats)
    assert json.dumps(stats._asdict()) == '{"mean": 0.25, "variance": 0.125, "sup_norm": 1.0}'
