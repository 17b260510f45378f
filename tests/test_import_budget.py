"""Import budget: a spawned shard child imports only what it runs.

Every multiproc shard start and every respawn pays the child's
interpreter boot, and the boot is mostly imports.  The package
``__init__``s on the child's path re-export lazily
(:func:`repro.util.lazy.lazy_exports`), so importing the three modules
``_shard_main`` needs must not drag in the gateway, Ripple, the
telemetry HTTP server or the filesystem models.
"""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: What the shard child imports: its entry point, the aggregator it
#: drives and the store backends it opens.
CHILD_IMPORTS = (
    "repro.msgq.multiproc",
    "repro.core.aggregator",
    "repro.core.storage",
)

#: Modules a shard child never runs.
CHILD_NEVER = (
    "repro.gateway",
    "repro.ripple",
    "repro.cloudq",
    "repro.baselines",
    "repro.fs",
    "repro.telemetry.server",
    "repro.telemetry.alerts",
    "repro.lustre.filesystem",
    "http.server",
    # repro.util's helpers the child has no use for.
    "repro.util.idgen",
    "repro.util.paths",
    "repro.util.tokens",
)

LAZY_PACKAGES = (
    "repro", "repro.core", "repro.lustre", "repro.telemetry", "repro.util",
)


def _loaded_after(*modules):
    """Names in ``sys.modules`` after importing *modules* in a fresh
    interpreter."""
    code = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(json.loads(completed.stdout))


class TestChildImportSet:
    def test_shard_child_loads_none_of_what_it_never_runs(self):
        loaded = _loaded_after(*CHILD_IMPORTS)
        assert set(CHILD_IMPORTS) <= loaded
        assert sorted(loaded & set(CHILD_NEVER)) == []

    def test_import_repro_loads_no_subpackage_but_util(self):
        subpackages = {
            f"repro.{path.parent.name}"
            for path in (SRC / "repro").glob("*/__init__.py")
        }
        # repro.util holds lazy_exports itself, so the root needs it.
        loaded = _loaded_after("repro")
        assert sorted(loaded & (subpackages - {"repro.util"})) == []


def lazy_map(package_name):
    """The literal name → submodule map a package hands to
    ``lazy_exports``, read from its ``__init__`` source."""
    init = SRC.joinpath(*package_name.split("."), "__init__.py")
    for node in ast.walk(ast.parse(init.read_text())):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Name) and func.id == "lazy_exports":
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package_name} does not export lazily")


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestLazyPackages:
    def test_every_public_name_resolves_to_its_definition(self, package_name):
        package = importlib.import_module(package_name)
        exports = lazy_map(package_name)
        assert set(exports) <= set(package.__all__)
        for name in package.__all__:
            value = getattr(package, name)
            assert name in vars(package), f"{name} is not cached"
            assert name in dir(package)
            if name in exports:
                owner = importlib.import_module(exports[name], package_name)
                assert value is getattr(owner, name), name

    def test_map_names_own_submodules_relatively(self, package_name):
        for name, module in lazy_map(package_name).items():
            assert module.startswith(".") and module[1] != ".", (name, module)
            assert importlib.util.find_spec(module, package_name), module

    def test_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert "no_such_export" not in dir(package)


class TestLazyExports:
    @pytest.mark.parametrize(
        "module", ["repro.core", "..core", "core", ".", ".a..b"]
    )
    def test_rejects_anything_but_a_relative_submodule(self, module):
        from repro.util.lazy import lazy_exports

        with pytest.raises(ValueError, match="relatively"):
            lazy_exports("repro", {"Aggregator": module})
