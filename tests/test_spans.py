"""The benchmark's span recorder wraps slaglab functions by name; each must resolve."""

import importlib
import importlib.util
import os

import pytest

_SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "benchmark", "spans.py")


def _targets():
    spec = importlib.util.spec_from_file_location("benchmark_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("group, module_name, attr", _targets())
def test_every_span_target_resolves(group, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:  # a method, wrapped on the class that defines it
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth)), attr
    else:
        assert callable(getattr(module, attr, None)), attr
