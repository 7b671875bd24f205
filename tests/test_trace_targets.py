"""Every function and method the benchmark tracer wraps must exist in geomrep."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    "module_name,path",
    [(m, p) for m, p, _, _ in TARGETS],
    ids=[f"{m}.{p}" for m, p, _, _ in TARGETS],
)
def test_target_resolves(module_name, path):
    home = importlib.import_module(f"geomrep.{module_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        # the tracer replaces the attribute in the class __dict__, not an inherited one
        assert attr in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, path))
