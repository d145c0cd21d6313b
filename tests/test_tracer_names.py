"""Every function the benchmark's tracer wraps must exist in the package.

``perfbench/tracer.py`` rebinds each (module, attribute) of its ``TRACED``
list by name, so removing or renaming a traced function breaks a traced
benchmark run; this test names the missing attribute in well under a second.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod_name, attr) for mod_name, attr, _ in module.TRACED]


@pytest.mark.parametrize("mod_name, attr", _traced(), ids=lambda v: v)
def test_traced_attribute_resolves(mod_name, attr):
    module = importlib.import_module(f"swarmsphere.{mod_name}")
    if "." in attr:  # a method, patched on its class as tracer.install does
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth)), f"{mod_name}.{attr}"
    else:
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
