"""Report and point records built by ``closed_forms._record``.

A landscape builds its ``ThermoReport``, ``CorrelationReport`` and
``CurvePoint`` records without the frozen dataclass ``__init__``, by one
generated constructor per class; each such record must be indistinguishable
from the one the constructor builds, down to the size of its ``__dict__``.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qfcool import closed_forms, sweep
from qfcool.closed_forms import ProtocolParams, ThermoReport, _record
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


def _constructed(record):
    """``record`` rebuilt by its class's own frozen ``__init__``."""
    return type(record)(*_values(record))


def assert_same_record(made, ref):
    assert type(made) is type(ref)
    assert made == ref
    assert repr(made) == repr(ref)
    assert pickle.dumps(made) == pickle.dumps(ref)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_record_equals_the_constructed_instance(cls):
    values = _values(_grid_records()[cls])
    made, ref = _record(cls)(*values), cls(*values)
    names = [f.name for f in dataclasses.fields(cls)]
    assert _record(cls) is _record(cls)  # one constructor per class
    assert_same_record(made, ref)
    assert hash(made) == hash(ref)
    assert list(vars(made)) == list(vars(ref)) == names
    assert dataclasses.asdict(made) == dataclasses.asdict(ref)
    assert dataclasses.replace(made) == ref
    assert (dataclasses.replace(made, **{names[0]: values[1]})
            == dataclasses.replace(ref, **{names[0]: values[1]}))
    restored = pickle.loads(pickle.dumps(made))
    assert restored == ref and list(vars(restored)) == names
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(made, names[0], values[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(made, names[-1])


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_record_dict_is_as_small_as_the_constructed_one(cls):
    # the constructor stores each field into the instance's own __dict__, so the record keeps
    # the class's shared keys; a dict display assigned as __dict__ would hold its own keys
    values = _values(_grid_records()[cls])
    made, ref = _record(cls)(*values), cls(*values)
    assert sys.getsizeof(vars(made)) == sys.getsizeof(vars(ref))


FRESH_SIZES = """
import dataclasses, sys
from qfcool import closed_forms as cf
params = cf.ProtocolParams(0.4, 0.8, 1.0)
made = [cf.figures_of_merit(params), cf._correlations(params)]  # before any constructed record
ref = [type(r)(*[getattr(r, f.name) for f in dataclasses.fields(r)]) for r in made]
print([[sys.getsizeof(vars(r)) for r in pair] for pair in zip(made, ref)])
"""


def test_the_first_records_of_a_fresh_interpreter_share_the_class_keys():
    # on Python 3.10 a dict store does not grow a class's shared keys, so records made
    # before any constructed one would each hold a dict of their own
    src = str(Path(closed_forms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FRESH_SIZES], env=env, capture_output=True, text=True, check=True)
    assert all(made == ref for made, ref in json.loads(out.stdout))


def test_every_record_the_library_builds_equals_the_constructed_one():
    grid = sweep.SweepGrid(eps_s=0.3, phi_values=(0.0, 0.4, 1.3), eps_a_values=(0.3, 0.5, 0.7, 0.999999999))
    records = []
    for point in sweep.landscape(grid, {"thermo", "correlations"}).points:
        records += [point, point.thermo, point.correlations]
    records += sweep.landscape(grid).points  # a point without correlations
    for params in (ProtocolParams(0.4, 0.8, 1.0), ProtocolParams(0.0, 0.0, 0.0, 1e-300)):
        records += [closed_forms.figures_of_merit(params), closed_forms._correlations(params)]
    assert {type(r) for r in records} == set(RECORD_CLASSES)
    for record in records:
        ref = _constructed(record)
        assert_same_record(record, ref)
        assert sys.getsizeof(vars(record)) == sys.getsizeof(vars(ref))


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_record_classes_have_nothing_for_the_helper_to_skip(cls):
    # ``_record`` skips ``__init__`` and ``__post_init__`` and fills the fields
    # by ``__match_args__``: a validating hook or a field outside the match
    # arguments would be skipped silently.
    assert not hasattr(cls, "__post_init__")
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls))
    assert all(f.init for f in dataclasses.fields(cls))
    assert cls.__dataclass_params__.frozen
