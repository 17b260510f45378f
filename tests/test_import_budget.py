"""Import budget: a spawned shard child imports only what it runs.

Every multiproc shard start and every respawn pays the child's
interpreter boot, and the boot is mostly imports.  A ``spawn`` child
imports the modules that its target and the pickled spec name, and the
spawn target (``repro.core.shard``) runs only the store half; the
package ``__init__``s on its path re-export lazily
(:func:`repro.util.lazy.lazy_exports`).  So the child must not drag in
the aggregator, the sockets, the service runtime, the gateway, Ripple,
the telemetry HTTP server or the filesystem models.
"""

import ast
import importlib
import importlib.util
import json
import multiprocessing.context
import pickle
import pickletools
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _pickled_modules(obj):
    """The ``repro`` modules that unpickling *obj* imports."""
    modules = set()
    for opcode, arg, _pos in pickletools.genops(pickle.dumps(obj, protocol=2)):
        if opcode.name == "GLOBAL":
            modules.add(arg.split(" ", 1)[0])
    return {name for name in modules if name.split(".")[0] == "repro"}


@pytest.fixture(scope="module")
def spawn_target():
    """The target and spec a ProcessShardBridge hands its child process.

    The bridge is built with ``Process.start`` recording the target and
    its arguments instead of starting a child.
    """
    from repro.core.aggregator import AggregatorConfig
    from repro.msgq.multiproc import MultiprocTransport

    seen = []
    start = multiprocessing.context.SpawnProcess.start
    multiprocessing.context.SpawnProcess.start = lambda self: seen.append(
        (self._target, self._args[0])
    )
    transport = MultiprocTransport()
    try:
        transport.process_shard(
            "s0",
            AggregatorConfig(
                inbound_endpoint="inproc://budget.reports",
                publish_endpoint="inproc://budget.events",
                api_endpoint="inproc://budget.api",
            ),
        )
    finally:
        multiprocessing.context.SpawnProcess.start = start
        transport.close()
    [(target, spec)] = seen
    return target, spec


@pytest.fixture(scope="module")
def child_imports(spawn_target):
    """What the shard child imports: the modules its spawn target and
    the pickled spec (config included) name."""
    target, spec = spawn_target
    return tuple(sorted(_pickled_modules(target) | _pickled_modules(spec)))


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
    # The child runs the store half alone: no aggregator, no sockets or
    # context, no bridge and no service runtime or scheduler.
    "repro.core.aggregator",
    "repro.msgq.multiproc",
    "repro.msgq.sockets",
    "repro.msgq.context",
    "repro.runtime",
    # The bridge's pipes carry frames with no queue or feeder thread.
    "multiprocessing.queues",
    # repro.util's helpers the child has no use for.
    "repro.util.idgen",
    "repro.util.paths",
    "repro.util.tokens",
)

LAZY_PACKAGES = (
    "repro", "repro.core", "repro.lustre", "repro.metrics", "repro.msgq",
    "repro.telemetry", "repro.util",
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
        # No bytecode: a test run must leave no .pyc files in src/.
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(json.loads(completed.stdout))


class TestChildImportSet:
    def test_spawn_target_and_spec_live_in_the_lean_module(
        self, spawn_target, child_imports
    ):
        target, spec = spawn_target
        assert target.__module__ == type(spec).__module__ == "repro.core.shard"
        assert child_imports == ("repro.core.shard",)

    def test_shard_child_loads_none_of_what_it_never_runs(self, child_imports):
        loaded = _loaded_after(*child_imports)
        assert set(child_imports) <= loaded
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
