"""Architecture ratchet: the package import graph follows the layer order.

Every ``import repro.<pkg>`` in ``src/repro`` (function-local imports
included) is an edge between top-level packages.  An edge pointing to a
higher layer is an upward edge; the ones that exist today are listed
with the ROADMAP item that removes them.  A new upward edge fails, and
so does a listed edge that has gone (delete it from the list).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ROADMAP item 6's order, lowest first; the simulated substrates and
#: models sit below the transport, the strawman baselines beside the
#: other clients of ``core``.
LAYERS = (
    {"errors", "util"},
    {"events"},
    {"metrics"},
    {"runtime"},
    {"lustre", "fs", "sim", "cloudq", "workloads", "perf"},
    {"msgq"},
    {"core"},
    {"cluster"},
    {"ripple", "telemetry", "gateway", "baselines"},
    {"harness", "cli", "__init__", "__main__"},
)
RANK = {package: rank for rank, layer in enumerate(LAYERS) for package in layer}

KNOWN_UPWARD = {
    ("msgq", "core"): "item 6: leaf repro.events, injected aggregator factory",
    ("msgq", "telemetry"): "item 6: the bridge takes its relay hook by injection",
    ("core", "telemetry"): "item 6: telemetry attaches from the composition root",
    ("core", "baselines"): "item 6: the polling backend leaves core/fsmonitor",
}


def package_edges():
    edges = set()
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).parts
        source = parts[0].removesuffix(".py")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                names = module.split(".")
                if names[0] == "repro" and len(names) > 1 and names[1] != source:
                    edges.add((source, names[1]))
    return edges


def test_every_package_is_placed_in_a_layer():
    packages = {path.name.removesuffix(".py") for path in SRC.iterdir()}
    packages.discard("__pycache__")
    assert packages - set(RANK) == set()


def test_upward_edges_are_exactly_the_known_ones():
    upward = {(a, b) for a, b in package_edges() if RANK[b] > RANK[a]}
    assert upward - set(KNOWN_UPWARD) == set(), "new upward import edge"
    assert set(KNOWN_UPWARD) - upward == set(), "edge removed: drop it here"
