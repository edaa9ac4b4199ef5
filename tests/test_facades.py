"""Package facades: every export resolves on first use, to the very
object the defining module holds.

Each ``__init__.py`` re-exports its names through
:func:`repro.util.lazy_exports` instead of importing them.  These tests
pin that a lazy facade answers exactly as the eager ``from … import …``
lines it replaced: in a fresh interpreter, before and after every
submodule of the package has been imported — the order in which a
submodule's import binds it onto its package, where it can shadow an
export of the same name (``repro.fuzz.shrink``).
"""

import json
import pathlib

import pytest

from tests.test_import_budget import fresh_interpreter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)

CHECK = """
import importlib, json, pkgutil, sys
import repro
from repro.util import _FACADES

if {submodules_first}:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def defining_module(package, name):
    module = _FACADES[package][name]
    importlib.import_module(module)
    while name in _FACADES.get(module, ()):  # a facade re-exporting a facade
        module = _FACADES[module][name]
        importlib.import_module(module)
    return sys.modules[module]


wrong = []
for name in {packages!r}:
    package = importlib.import_module(name)
    unlisted = sorted(set(package.__all__) - set(dir(package)))
    if unlisted:
        wrong.append([name, "not in dir()", unlisted])
    for export in package.__all__:
        if export == "__version__":
            continue
        value = getattr(package, export)
        if value is not getattr(defining_module(name, export), export):
            wrong.append([name, export, repr(value)])
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("submodules_first", [False, True], ids=["fresh", "after-submodules"])
def test_every_export_is_the_defining_modules_object(submodules_first):
    out = fresh_interpreter(
        "-c", CHECK.format(submodules_first=submodules_first, packages=PACKAGES)
    )
    assert json.loads(out) == []

