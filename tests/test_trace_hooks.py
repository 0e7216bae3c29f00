"""The benchmark's span recorder (``perfbench/traced.py``) wraps library
functions by (module, attribute) name; a refactor that drops or renames one
of them must fail here, not only under ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _wrappers():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines WRAPPERS; installs nothing
    return module.WRAPPERS


@pytest.mark.parametrize("module, attribute",
                         sorted({(w[0], w[1]) for w in _wrappers()}))
def test_wrapped_name_resolves(module, attribute):
    mod = importlib.import_module(f"padic_rama.{module}")
    assert callable(getattr(mod, attribute, None)), f"padic_rama.{module}.{attribute}"
