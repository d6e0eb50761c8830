"""Package layering: the simulation core never imports the tooling on top.

The model, its structures and its workloads (``sim``, ``coherence``,
``core``, ``noc``, ``mem``, ``frontend``, ``sync``, ``energy``,
``workloads``) sit below the layers that analyse, serve, sweep, observe
or drive them.  An upward import — even one deferred into a function or
guarded by ``TYPE_CHECKING`` — would make the core depend on its own
checkers, so the walk below counts every import statement in the file.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

LOWER = ("sim", "coherence", "core", "noc", "mem", "frontend", "sync",
         "energy", "workloads")
UPPER = ("analysis", "service", "harness", "obs", "cli")


def _imported_modules(source, package):
    """Absolute dotted names of every module ``source`` imports.

    ``package`` is the importing module's package as a list of names
    (``["repro", "sim"]``), against which relative imports resolve.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def _file_imports(path):
    package = ["repro", *path.relative_to(SRC).parent.parts]
    return _imported_modules(path.read_text(), package)


def _is_upper(module):
    return any(module == f"repro.{name}" or
               module.startswith(f"repro.{name}.") for name in UPPER)


@pytest.mark.parametrize("package", LOWER)
def test_lower_layers_never_import_upper_layers(package):
    files = sorted((SRC / package).rglob("*.py"))
    assert files, f"no sources under repro.{package}"
    offenders = [f"{path.relative_to(SRC)} imports {module}"
                 for path in files
                 for module in _file_imports(path)
                 if _is_upper(module)]
    assert offenders == []


def test_walk_sees_every_import_form():
    # Not vacuous: the real sources are parsed and their imports seen.
    assert "repro.coherence.directory" in set(
        _file_imports(SRC / "sim" / "machine.py"))
    sim = ["repro", "sim"]
    for source in ("import repro.analysis.lint",
                   "from repro.harness import executor",
                   "from repro import cli",
                   "from ..obs import histogram",
                   "def f():\n    from repro.service import app"):
        assert any(_is_upper(m) for m in _imported_modules(source, sim)), \
            source
    assert not any(_is_upper(m) for m in _imported_modules(
        "from . import events\nfrom ..coherence import l1", sim))


# --- runtime dependencies are the standard library ----------------------


def _is_third_party(module):
    top = module.split(".")[0]
    return top not in ("repro", "__future__") \
        and top not in sys.stdlib_module_names


def test_src_imports_only_repro_and_the_stdlib():
    """``pyproject.toml`` declares no runtime dependency: every import in
    ``src/repro``, deferred or guarded ones too, is ``repro.*``,
    ``__future__`` or a standard-library module."""
    offenders = [f"{path.relative_to(SRC)} imports {module}"
                 for path in sorted(SRC.rglob("*.py"))
                 for module in _file_imports(path)
                 if _is_third_party(module)]
    assert offenders == []
    # Not vacuous: a third-party import is told from the stdlib's.
    sim = ["repro", "sim"]
    assert any(_is_third_party(m) for m in _imported_modules(
        "def f():\n    import numpy as np", sim))
    assert not any(_is_third_party(m) for m in _imported_modules(
        "from os import path\nfrom . import events\nimport json", sim))


# --- traffic accounting has one gateway --------------------------------

TRAFFIC_COUNTERS = ("flits", "flit_hops")


def _traffic_increments(source):
    """Line numbers of every ``+=`` on a traffic counter in ``source``.

    A counter is a ``.flits`` or ``.flit_hops`` attribute or an item of
    a ``.messages`` mapping.  Plain assignment (deserialization) is not
    an increment.
    """
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.AugAssign):
            continue
        target = node.target
        if isinstance(target, ast.Subscript):
            target = target.value
            counter = isinstance(target, ast.Attribute) and \
                target.attr == "messages"
        else:
            counter = isinstance(target, ast.Attribute) and \
                target.attr in TRAFFIC_COUNTERS
        if counter:
            yield node.lineno


def test_only_the_noc_layer_increments_traffic_counters():
    """Every protocol message is accounted through ``Mesh.record``."""
    offenders = [f"{path.relative_to(SRC)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 if path.relative_to(SRC).parts[0] != "noc"
                 for line in _traffic_increments(path.read_text())]
    assert offenders == []


def test_traffic_walk_sees_every_counter_form():
    # Not vacuous: the gateway's own increments are found.
    assert list(_traffic_increments((SRC / "noc" / "mesh.py").read_text()))
    for source in ("tm.flits += 2", "meter.flit_hops += f * h",
                   "self._traffic.messages[msg] += 1"):
        assert list(_traffic_increments(source)) == [1], source
    for source in ("traffic.flits = data['flits']",
                   "traffic.messages[t] = n", "stats.reads += 1",
                   "counts[msg] += 1"):
        assert list(_traffic_increments(source)) == [], source


# --- per-operation code names enum members through module aliases ------

#: Modules whose functions run per simulated operation: the Machine
#: handlers and helpers, the engine loop, the coherence structures, the
#: NoC accounting, the placement policies and the ISA factories.
HOT_MODULES = ("sim/machine.py", "sim/engine.py", "coherence/cache.py",
               "coherence/directory.py", "coherence/l1.py", "noc/mesh.py",
               "noc/message.py", "core/policy.py", "core/amt.py",
               "core/static_policies.py", "core/dynamo_reuse.py",
               "core/dynamo_metric.py", "frontend/isa.py")


def _hot_enums():
    from repro.coherence.states import CacheState
    from repro.core.policy import Placement
    from repro.frontend.isa import AmoKind, OpType
    from repro.noc.message import MsgType
    return {cls.__name__: set(cls.__members__)
            for cls in (CacheState, Placement, OpType, AmoKind, MsgType)}


def _enum_member_loads(source, enums):
    """``(function, line)`` of every ``Enum.MEMBER`` load inside a function.

    Module-level and class-body loads (where the aliases are defined)
    run once at import and are not reported.
    """
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Lambda):
            function = "<lambda>"
        elif (function is not None and isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.attr in enums.get(node.value.id, ())):
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(ast.parse(source), None))


def _functions(source):
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_per_op_code_loads_no_enum_members():
    """``CacheState.UC`` and the like cost ~150 ns through
    ``EnumType.__getattr__``; per-op code uses the module aliases."""
    enums = _hot_enums()
    offenders = [f"{name}:{line} in {function}()"
                 for name in HOT_MODULES
                 for function, line in _enum_member_loads(
                     (SRC / name).read_text(), enums)]
    assert offenders == []


def test_enum_load_walk_sees_every_form():
    # Not vacuous: the hot functions are parsed ...
    seen = set()
    for name in HOT_MODULES:
        seen |= _functions((SRC / name).read_text())
    assert {"_amo", "_amo_near", "_invalidate_holders", "run", "record",
            "by_type", "insert_l1", "decide", "on_block_departure",
            "ldmin", "cas"} <= seen
    # ... and every way of naming a member inside one is caught.
    enums = _hot_enums()
    for source in ("def f(s):\n    return s is CacheState.UC",
                   "class M:\n    def h(self):\n        return Placement.NEAR",
                   "def f():\n    g = lambda: OpType.READ",
                   "def f():\n    def g():\n        return AmoKind.ADD",
                   "def f(r):\n    r(MsgType.SNOOP, 1)"):
        assert len(_enum_member_loads(source, enums)) == 1, source
    for source in ("UC = CacheState.UC",
                   "class A:\n    NEAR = Placement.NEAR",
                   "def f(v):\n    return CacheState(v)",
                   "def f():\n    return list(MsgType)",
                   "def f(op):\n    return op.type.READ"):
        assert _enum_member_loads(source, enums) == [], source


# --- one module builds process pools -----------------------------------

#: The one module allowed to build a process pool (``ProcessCompute``).
POOL_MODULE = "harness/executor.py"
POOL_BUILDERS = ("ProcessPoolExecutor", "get_context")


def _pool_names(source):
    """Line numbers where ``source`` names a process-pool builder: as a
    name, an attribute or an imported name."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        if name in POOL_BUILDERS:
            yield node.lineno


def test_only_the_executor_builds_process_pools():
    """Sweeps, serve and golden share ``ProcessCompute``'s pool."""
    offenders = [f"{path.relative_to(SRC)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 if path.relative_to(SRC).as_posix() != POOL_MODULE
                 for line in _pool_names(path.read_text())]
    assert offenders == []


def test_pool_walk_sees_every_form():
    # Not vacuous: the pool module's own uses are found ...
    assert list(_pool_names((SRC / POOL_MODULE).read_text()))
    # ... and every way of naming a builder is caught.
    for source in ("from concurrent.futures import ProcessPoolExecutor",
                   "import concurrent.futures as cf\n"
                   "cf.ProcessPoolExecutor(2)",
                   "multiprocessing.get_context('fork')",
                   "from multiprocessing import get_context as ctx"):
        assert list(_pool_names(source)), source
    for source in ("from concurrent.futures import ThreadPoolExecutor",
                   "multiprocessing.Pipe(duplex=False)",
                   "import multiprocessing"):
        assert list(_pool_names(source)) == [], source


# --- the directory's sharer bit vector has two owners -------------------

#: The modules that read or write ``DirEntry.sharers`` directly: the
#: entry itself and the Machine's hot paths.  Everything else reads
#: holders through ``DirEntry``'s methods.
SHARER_MODULES = ("coherence/directory.py", "sim/machine.py")


def _sharer_touches(source):
    """Line numbers of every ``.sharers`` attribute in ``source``, read or
    written."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "sharers":
            yield node.lineno


def test_only_the_directory_and_machine_touch_sharer_bits():
    """The full-map bit layout is known to two modules."""
    offenders = [f"{path.relative_to(SRC)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 if path.relative_to(SRC).as_posix() not in SHARER_MODULES
                 for line in _sharer_touches(path.read_text())]
    assert offenders == []


def test_sharer_walk_sees_every_form():
    # Not vacuous: both owners' own uses are found ...
    for name in SHARER_MODULES:
        assert list(_sharer_touches((SRC / name).read_text())), name
    # ... and every way of touching the field is caught.
    for source in ("entry.sharers |= 1 << core", "e.sharers = 0",
                   "if core in entry.sharers: pass",
                   "sorted(directory.peek(b).sharers)",
                   "entry.sharers.add(core)"):
        assert list(_sharer_touches(source)) == [1], source
    for source in ("entry.sharer_cores()", "entry.has_sharer(3)",
                   "sharers = entry.holders()", "# entry.sharers"):
        assert list(_sharer_touches(source)) == [], source
