"""The package's export contract: each module's __all__ names what it
exports, and the package exports their concatenation and __version__."""

import importlib
import pkgutil

import idealconv

# every module but the command-line front end, in the order the package
# star-imports them
MODULES = [
    importlib.import_module(f"idealconv.{info.name}")
    for info in sorted(pkgutil.iter_modules(idealconv.__path__), key=lambda i: i.name)
    if info.name != "cli"
]


def test_every_module_exports_only_what_it_defines():
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, (mod, name)


def test_no_name_is_exported_by_two_modules():
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(names) == len(set(names))


def test_package_exports_the_module_lists_and_version():
    assert [m.__name__ for m in MODULES] == [
        f"idealconv.{m}"
        for m in ("arith", "bulk", "convergence", "errors", "exponent", "sets", "suite")
    ]
    want = [name for mod in MODULES for name in mod.__all__] + ["__version__"]
    assert idealconv.__all__ == want
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(idealconv, name) is getattr(mod, name)


def test_star_import_binds_exactly_the_export_list():
    ns: dict = {}
    exec("from idealconv import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(idealconv.__all__)
