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


def test_every_all_entry_is_bound_and_reexported():
    modules = [obj for obj in vars(pdmm).values()
               if inspect.ismodule(obj) and hasattr(obj, "__all__")]
    assert len(modules) == 6
    stale = [f"{module.__name__}.{name}" for module in modules for name in module.__all__
             if not hasattr(module, name) or getattr(pdmm, name, None) is not getattr(module, name)]
    assert not stale
