"""What a process loads, and the public API that lazy loading must keep.

A command imports only what it runs: ds never loads window (matrix blocks
and the proof chain do) and no command loads dataclasses or inspect.  The
records that replaced the frozen dataclasses behave as those did.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
import types
from dataclasses import FrozenInstanceError, make_dataclass
from fractions import Fraction

import pytest

import biriordan
from biriordan.simplicial import FVector, HVector, ProofStep, ProofTrace
from biriordan.window import MatrixWindow, VectorWindow

# runs cli.main on its arguments, then prints the loaded module names to
# stderr; -S keeps out what site-packages' .pth files happen to import
_RUN_AND_LIST = """
import sys
from biriordan.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def _python(*args) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(biriordan.__file__))
    return subprocess.run([sys.executable, "-S", *args], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))


def _modules_loaded_by(*argv) -> set:
    done = _python("-c", _RUN_AND_LIST, *argv)
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("argv", [("ds", "--f", "1,4,6,4"),
                                  ("ds", "--f", "1,4,6,4", "--json")])
def test_ds_loads_neither_window_nor_dataclasses(argv):
    loaded = _modules_loaded_by(*argv)
    assert "biriordan.simplicial" in loaded
    assert not loaded & {"dataclasses", "inspect", "biriordan.window"}


@pytest.mark.parametrize("argv", [
    ("ds", "--f", "1,4,6,4", "--trace"),
    ("matrix", "window", "--omega", "x/(1-x)", "--rows", "0..2", "--cols", "0..2"),
])
def test_blocks_load_window_without_dataclasses(argv):
    loaded = _modules_loaded_by(*argv)
    assert "biriordan.window" in loaded
    assert "dataclasses" not in loaded


def test_public_api_is_unchanged():
    star: dict = {}
    exec("from biriordan import *", star)
    assert [name for name in biriordan.__all__ if name not in star] == []
    assert all(getattr(biriordan, name) is star[name] for name in biriordan.__all__)
    assert isinstance(biriordan.riordan, types.FunctionType)
    assert isinstance(biriordan.window, types.ModuleType)
    assert star["extract"] is biriordan.window.extract
    with pytest.raises(AttributeError):
        biriordan.no_such_name


def test_public_api_resolves_in_a_fresh_process():
    # window first loads here, through the package's module __getattr__
    done = _python("-c", """
import sys
import biriordan
assert "biriordan.window" not in sys.modules
star = {}
exec("from biriordan import *", star)
assert "biriordan.window" in sys.modules
assert type(biriordan.riordan).__name__ == "function"
assert type(biriordan.window).__name__ == "module"
assert sorted(n for n in biriordan.__all__ if n in star) == sorted(biriordan.__all__)
""")
    assert done.returncode == 0, done.stderr


_RECORDS = [
    (FVector(1, (1, 2, 1)), ("d", "f")),
    (HVector(1, (1, Fraction(1, 2), 1)), ("d", "h")),
    (ProofStep("reversal window", "[1]"), ("name", "detail")),
    (ProofTrace(0, (ProofStep("a", "b"),)), ("d", "steps")),
    (MatrixWindow(-1, 2, ((1, 2), (3, 4))), ("row_lo", "col_lo", "entries")),
    (VectorWindow(-2, (7, 8, 9)), ("lo", "values")),
]


@pytest.mark.parametrize("record, names", _RECORDS,
                         ids=[type(r).__name__ for r, _ in _RECORDS])
def test_records_behave_as_frozen_dataclasses(record, names):
    cls = type(record)
    values = tuple(getattr(record, name) for name in names)
    twin = make_dataclass(cls.__name__, names, frozen=True)(*values)
    assert repr(record) == repr(twin)
    assert hash(record) == hash(twin)
    assert record == cls(*values) == cls(**dict(zip(names, values)))
    assert record == cls(values[0], **dict(zip(names[1:], values[1:])))
    assert record != twin and record != values
    assert record == copy.deepcopy(record) == pickle.loads(pickle.dumps(record))
    assert len({record, cls(*values)}) == 1
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(twin, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    for bad_args, bad_kwargs in [(values[:-1], {}), (values + (0,), {}),
                                 (values, {names[0]: values[0]}),
                                 (values, {"other": 0})]:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


def test_records_of_different_classes_differ():
    assert FVector(1, (1, 2, 1)) != HVector(1, (1, 2, 1))
    assert MatrixWindow(0, 0, ((1,),)) != MatrixWindow(0, 1, ((1,),))


def test_keyword_construction_validates_and_warns():
    assert FVector(d=1, f=(1, 2, 1)).f == (1, 2, 1)
    with pytest.raises(ValueError):
        FVector(d=2, f=(1, 2))
    with pytest.warns(UserWarning, match="f_{-1}"):
        FVector(f=(2, 1), d=0)
