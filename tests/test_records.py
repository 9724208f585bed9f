"""Report and point records built by ``closed_forms._record``.

A landscape builds its ``ThermoReport``, ``CorrelationReport`` and
``CurvePoint`` records without the frozen dataclass ``__init__``; each such
record must be indistinguishable from the one the constructor builds.
"""

import dataclasses
import pickle

import pytest

from qfcool import sweep
from qfcool.closed_forms import ThermoReport, _record
from qfcool.correlations import CorrelationReport
from qfcool.sweep import CurvePoint

RECORD_CLASSES = (ThermoReport, CorrelationReport, CurvePoint)


def _grid_records():
    """One record of each class, taken from a real landscape grid point."""
    grid = sweep.SweepGrid(eps_s=0.4, phi_values=(0.3, 1.2), eps_a_values=(0.5, 0.9))
    point = sweep.landscape(grid, {"thermo", "correlations"}).points[-1]
    return {CurvePoint: point, ThermoReport: point.thermo, CorrelationReport: point.correlations}


def _values(record):
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_record_equals_the_constructed_instance(cls):
    values = _values(_grid_records()[cls])
    made, ref = _record(cls, *values), cls(*values)
    names = [f.name for f in dataclasses.fields(cls)]
    assert type(made) is cls
    assert made == ref
    assert hash(made) == hash(ref)
    assert repr(made) == repr(ref)
    assert list(vars(made)) == list(vars(ref)) == names
    assert dataclasses.asdict(made) == dataclasses.asdict(ref)
    assert dataclasses.replace(made) == ref
    assert (dataclasses.replace(made, **{names[0]: values[1]})
            == dataclasses.replace(ref, **{names[0]: values[1]}))
    restored = pickle.loads(pickle.dumps(made))
    assert restored == ref and list(vars(restored)) == names
    assert pickle.dumps(made) == pickle.dumps(ref)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(made, names[0], values[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(made, names[-1])


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_record_classes_have_nothing_for_the_helper_to_skip(cls):
    # ``_record`` skips ``__init__`` and ``__post_init__`` and fills the fields
    # by ``__match_args__``: a validating hook or a field outside the match
    # arguments would be skipped silently.
    assert not hasattr(cls, "__post_init__")
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls))
    assert all(f.init for f in dataclasses.fields(cls))
    assert cls.__dataclass_params__.frozen
