import importlib
import pkgutil
import re
from functools import reduce
from pathlib import Path

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


def test_every_package_name_in_the_readme_resolves():
    # the README points readers at constants and functions as bbpre.<module>.<name>;
    # one left there after its definition is deleted or moved points nowhere
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = sorted(set(re.findall(r"\bbbpre(?:\.\w+)+", readme)))
    missing = object()
    stale = []
    for name in names:
        head, *attrs = name.split(".")[1:]
        try:
            owner = importlib.import_module(f"bbpre.{head}")
        except ModuleNotFoundError:
            owner, attrs = bbpre, [head, *attrs]
        if reduce(lambda obj, attr: getattr(obj, attr, missing), attrs, owner) is missing:
            stale.append(name)
    assert len(names) > 5 and stale == []
