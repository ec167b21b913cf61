import inspect
import sys

import pdmm


def test_reexports_are_listed_in_defining_module_all():
    missing = []
    for name, obj in vars(pdmm).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        module = sys.modules[obj.__module__]
        if name not in module.__all__:
            missing.append(f"{module.__name__}.{name}")
    assert not missing
