import importlib
import pkgutil

import bbpre


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks `from bbpre.<module> import *`
    stale, checked = [], 0
    for info in pkgutil.iter_modules(bbpre.__path__):
        if info.name == "__main__":  # runs the command line on import
            continue
        module = importlib.import_module(f"bbpre.{info.name}")
        exported = getattr(module, "__all__", ())
        checked += len(exported)
        stale += [f"bbpre.{info.name}.{name}" for name in exported if not hasattr(module, name)]
    assert checked > 0 and stale == []
