"""The library names the benchmark in ``perfbench/`` reaches for must exist.

``perfbench/layers.py`` wraps library functions by module attribute, and
a wrapped name that no longer exists is only counted
(``trace.absent_wrappers``), so a rename would silently drop a layer's
numbers. The rest of ``perfbench/`` calls the library by attribute too.
Both kinds of name are checked here, from ``perfbench/`` as it is: the
wrapped ones by running ``layers.install`` with a recording tracer, the
others by reading the sources.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from softalign import backend, gradcheck, harness, synthgen, trainer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _RecordingTracer:
    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, label=None):
        self.wrapped.append((module, attr))


def test_every_wrapped_name_is_callable():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = _RecordingTracer()
    layers.install(tracer, synthgen, trainer, gradcheck, harness, backend)
    assert tracer.wrapped
    absent = [f"{module.__name__}.{attr}" for module, attr in tracer.wrapped
              if not callable(getattr(module, attr, None))]
    assert not absent


def _library_uses(tree):
    """(module, attribute) for each ``from softalign.x import name`` and
    each ``alias.name`` where ``alias`` is bound by an import of softalign;
    a string constant that imports softalign, such as the code a
    benchmark runs in a fresh interpreter, is read the same way."""
    aliases, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "softalign":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "softalign":
            for a in node.names:
                if node.module == "softalign":  # a submodule
                    aliases[a.asname or a.name] = f"softalign.{a.name}"
                else:
                    uses.append((node.module, a.name))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "import softalign" in node.value):
            uses += _library_uses(ast.parse(node.value))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.append((aliases[node.value.id], node.attr))
    return uses


def test_every_library_attribute_the_benchmark_uses_exists():
    uses = {use for path in PERFBENCH.glob("*.py")
            for use in _library_uses(ast.parse(path.read_text()))}
    # the scan reaches calls the benchmark is known to make, among them
    # names that only the benchmark holds up
    assert {("softalign.gradcheck", "forward_value"),
            ("softalign.backend", "active_backend"),
            ("softalign.gradcheck", "check_gradients"),
            ("softalign.objectives", "LossConfig")} <= uses
    missing = sorted(f"{module}.{attr}" for module, attr in uses
                     if not hasattr(importlib.import_module(module), attr))
    assert not missing
