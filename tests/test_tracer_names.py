"""Every corrdet name the benchmark tracer wraps still exists.

corrbench/tracer.py looks its names up by getattr with no default, so a
removed or renamed name crashes traced benchmark runs; this fails first.
The tracer's table is read, and nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "corrbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("corrbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in tracer.WRAPPED.items() for n in names]
)
def test_wrapped_name_resolves(module, name):
    home = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    assert hasattr(home, name), f"corrdet.{module}.{name} is gone"
