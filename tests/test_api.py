"""The package root exports what the README documents or the tools use.

`lim3d/__init__.py` re-exports names from the submodules. Each must be
named in the README's "Library API" section or be imported from the
package root by the CLI, a demo or `bench/`; each name that section
documents must be exported. An export that nothing documents or uses, or a
documented name that is gone, fails here.

No module under `src/lim3d` reads the environment or starts threads: a
setting is a flag or an argument, and the work runs in one thread.

Only `training.prepare_frame` builds a rulebook: the network and the
convolutions take the frame's table and never build their own. Likewise
only it voxelizes, and only `voxelize` computes cell keys, so a cloud is
binned once and every later use reads the tensor's `point_rows`.

No top-level function of `training` defines a nested function: the toy
run's stages are public functions over one `ToyRun`, so a variant of the
recipe composes them rather than patching a closure it cannot reach.

`SparseVoxelTensor.__post_init__` calls no sort: the tensor checks the
cell-key order its callers hand over and never reorders their rows.

`tests/dense_reference.py`, the dense convolution oracle, takes classes from
`lim3d` but no function, so it computes nothing with the code it checks.

Every field of a recipe dataclass the package root exports (`SceneSpec`,
`ToyPipelineConfig` and the rest of `RECIPES`) is a setting some caller in
`src/`, `bench/` or `demos/` varies; a value nothing sets is a class
constant.

Only `scene` derives a sequence's seed: every other module passes
`synth_frames` or `synth_sequence` the run's seed and a `sequence_id`,
never a seed of its own arithmetic.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lim3d"


def exports() -> set[str]:
    """Names `__init__.py` binds with ``from .module import ...``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names}


def documented() -> set[str]:
    """Identifiers in backticks, or calls like ``name(args)``, in the
    README's Library API section."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Library API\n(.*?)(?=^## )", text, re.M | re.S)
    assert section, "README.md has no '## Library API' section"
    spans = re.findall(r"`([^`]+)`", section.group(1))
    return {m.group(1) for span in spans
            if (m := re.fullmatch(r"([A-Za-z_]\w*)(\(.*\))?", span, re.S))}


def used() -> set[str]:
    """Names the CLI, the demos and `bench/` take from the package root:
    ``from lim3d import name``, ``lim3d.name`` and, in the CLI,
    ``from . import name``; submodules and dunders left out."""
    names = set()
    for path in [PACKAGE / "cli.py", *sorted(ROOT.glob("demos/*.py")),
                 *sorted(ROOT.glob("bench/*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level == 0 and node.module == "lim3d")
                    or (path.name == "cli.py" and node.level == 1 and node.module is None)):
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "lim3d"):
                names.add(node.attr)
    return {n for n in names if not n.startswith("_") and not (PACKAGE / f"{n}.py").exists()}


def test_every_export_is_documented_or_used():
    assert exports() - documented() - used() == set()


def test_every_documented_or_used_name_is_exported():
    assert (documented() | used()) - exports() == set()


def test_the_parsers_see_the_names():
    # Guards the checks above against a parser that finds nothing.
    assert {"ConvSpec", "apply_spatial", "spatial_forward", "glorot_weights"} <= documented()
    assert {"MiniSegNet", "voxelize", "topology_cost"} <= used()


ENV_READS = {"environ", "environb", "getenv"}
THREAD_MODULES = {"threading", "concurrent"}


def knobs(source: str) -> list[str]:
    """``line: name`` for each environment read (``os.environ``,
    ``os.getenv``) and each import of `threading` or `concurrent.futures`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names
                                    if node.module == "os" and alias.name in ENV_READS)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "os" and node.attr in ENV_READS):
            names = [f"os.{node.attr}"]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.startswith("os.") or name.split(".")[0] in THREAD_MODULES]
    return found


def test_no_module_reads_the_environment_or_imports_threads():
    found = {str(path.relative_to(PACKAGE)): hits for path in sorted(PACKAGE.rglob("*.py"))
             if (hits := knobs(path.read_text()))}
    assert found == {}


def test_the_knob_finder_sees_them():
    # Guards the check above against a finder that finds nothing.
    source = ("import os, threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "from os import getenv, path\nn = os.environ.get('N')\nimport concurrent.futures\n"
              "p = os.PathLike\n")
    assert set(knobs(source)) == {"1: threading", "2: concurrent.futures", "3: os.getenv",
                                  "4: os.environ", "5: concurrent.futures"}


def callers(source: str, callee: str) -> set[str]:
    """Qualified names of the functions (``<module>`` at top level) that call
    `callee` by name or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == callee or getattr(func, "attr", None) == callee:
                    found.add(scope)
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def package_callers(callee: str) -> set[str]:
    """``module.function`` for each caller of `callee` under `src/lim3d`."""
    return {f"{path.stem}.{name}" for path in sorted(PACKAGE.rglob("*.py"))
            for name in callers(path.read_text(), callee)}


def test_only_prepare_frame_builds_a_rulebook():
    assert package_callers("build_rulebook") == {"training.prepare_frame"}


def test_a_cloud_is_binned_in_one_place():
    # The tensor's `point_rows` is the one point-to-voxel map: no caller
    # computes cell keys again, or voxelizes a prepared cloud a second time.
    assert package_callers("_cell_keys") == {"voxel.voxelize"}
    assert package_callers("voxelize") == {"training.prepare_frame"}


def test_the_caller_finder_sees_them():
    # Guards the check above against a finder that finds nothing.
    source = ("rb = build_rulebook(c, g, 3)\n"
              "class Net:\n    def _rulebook(self, t):\n"
              "        return sparseconv.build_rulebook(t.coords, t.grid, 3)\n"
              "def f():\n    def g():\n        return build_rulebook(c, g, 5)\n"
              "def h():\n    return build_rulebook\n")
    assert callers(source, "build_rulebook") == {"<module>", "Net._rulebook", "f.g"}


FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def nested_functions(source: str) -> list[str]:
    """``outer.inner`` for each function or lambda defined inside a top-level
    function. Class bodies are not searched, so a dataclass field's
    ``default_factory`` lambda is exempt."""
    return [f"{node.name}.{getattr(inner, 'name', '<lambda>')}"
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node) if inner is not node and isinstance(inner, FUNCTION_NODES)]


def test_training_functions_define_no_nested_functions():
    assert nested_functions((PACKAGE / "training.py").read_text()) == []


def test_the_nested_function_finder_sees_them():
    # Guards the check above against a finder that finds nothing.
    source = ("def f():\n    def g():\n        return lambda: 1\n"
              "async def h():\n    key = sorted(xs, key=lambda x: -x)\n"
              "class C:\n    n: list = field(default_factory=lambda: [])\n"
              "    def m(self):\n        def inner():\n            pass\n"
              "def flat():\n    return 1\n")
    assert nested_functions(source) == ["f.g", "f.<lambda>", "h.<lambda>"]


SORTS = ("argsort", "lexsort", "sort", "unique")


def test_the_voxel_tensor_checks_its_order_without_sorting():
    source = (PACKAGE / "voxel.py").read_text()
    assert [name for name in SORTS
            if "SparseVoxelTensor.__post_init__" in callers(source, name)] == []


def test_the_caller_finder_sees_a_sort():
    # Guards the check above against a finder that finds nothing.
    source = ("class SparseVoxelTensor:\n    def __post_init__(self):\n"
              "        order = np.argsort(keys, kind='stable')\n        keys.sort()\n"
              "        np.lexsort((a, b)), np.unique(keys)\n")
    assert all(callers(source, name) == {"SparseVoxelTensor.__post_init__"} for name in SORTS)


def package_non_classes(source: str) -> list[str]:
    """Each name `source` imports from `lim3d` or its submodules that is not
    a class; ``import lim3d...`` reaches every function, so it counts too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "lim3d"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "lim3d"):
            module = importlib.import_module(node.module)
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if not inspect.isclass(getattr(module, alias.name))]
    return found


def test_the_dense_oracle_imports_no_package_function():
    assert package_non_classes((ROOT / "tests" / "dense_reference.py").read_text()) == []


def test_the_import_finder_sees_functions():
    # Guards the check above against a finder that finds nothing.
    source = ("import numpy as np\nfrom lim3d import SparseVoxelTensor, voxelize\n"
              "from lim3d.voxel import CylGridSpec, _cell_keys\nimport lim3d.sparseconv\n"
              "def f():\n    from lim3d.errors import ShapeError, is_count\n")
    assert package_non_classes(source) == ["lim3d.voxelize", "lim3d.voxel._cell_keys",
                                           "lim3d.sparseconv", "lim3d.errors.is_count"]


def settings(source: str, callee: str, fields: tuple[str, ...] = ()) -> set[str]:
    """Names `source` may pass to `callee`: each keyword of a call to it, by
    name or as an attribute, each of its `fields` that a call to it passes
    by position, and each key of a dict that a call to it splats with
    ``**``. Such a dict is a literal (its string keys), a ``dict(...)`` call
    (its keywords) or a name or attribute, read through every assignment
    to it in `source` and every ``.update(...)`` keyword it gets; a
    conditional expression gives both branches, and a nested ``**`` is
    followed the same way."""
    tree = ast.parse(source)
    bound: dict[str, list[ast.expr]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bound.setdefault(ast.unparse(target), []).append(node.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "update"):
            bound.setdefault(ast.unparse(node.func.value), []).append(node)

    def keys(expr: ast.expr, seen: set[str]) -> set[str]:
        if isinstance(expr, ast.IfExp):
            return keys(expr.body, seen) | keys(expr.orelse, seen)
        if isinstance(expr, ast.Dict):
            named = {k.value for k in expr.keys
                     if isinstance(k, ast.Constant) and isinstance(k.value, str)}
            return named.union(*(keys(v, seen) for k, v in zip(expr.keys, expr.values)
                                 if k is None))
        if isinstance(expr, ast.Call) and (getattr(expr.func, "id", None) == "dict"
                                           or getattr(expr.func, "attr", None) == "update"):
            return set().union(*(keys(k.value, seen) if k.arg is None else {k.arg}
                                 for k in expr.keywords))
        name = ast.unparse(expr)
        if name in seen:
            return set()
        return set().union(*(keys(v, seen | {name}) for v in bound.get(name, [])))

    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None)
                                           or getattr(node.func, "attr", None)) == callee:
            for k in node.keywords:
                found |= {k.arg} if k.arg is not None else keys(k.value, set())
            # By position up to the first ``*args``.
            found.update(fields[:next((i for i, a in enumerate(node.args)
                                       if isinstance(a, ast.Starred)), len(node.args))])
    return found


RECIPES = ("SceneSpec", "ContrastiveConfig", "ReflecConfig", "LossConfig", "CylGridSpec",
           "LayerSpec", "ToyPipelineConfig")


def test_every_toy_config_field_is_set_by_a_caller():
    """Covers every recipe in `RECIPES`, the toy run's config among them."""
    import lim3d
    paths = [*PACKAGE.rglob("*.py"), *ROOT.glob("bench/*.py"), *ROOT.glob("demos/*.py")]
    sources = [p.read_text() for p in paths if not p.name.startswith("test_")]
    unset = set()
    for name in RECIPES:
        fields = tuple(f.name for f in dataclasses.fields(getattr(lim3d, name)))
        used = set().union(*(settings(source, name, fields) for source in sources))
        unset.update(f"{name}.{field}" for field in fields if field not in used)
    assert unset == set()


def test_the_settings_finder_sees_them():
    # Guards the check above against a finder that finds nothing, and
    # against one that credits a dict no call to the recipe splats.
    source = ("cfg = lim3d.Config(seed=1, **extra)\n"
              "extra = dict(stages=(1,), **overrides) if fast else {}\n"
              "overrides = {'lambda_c': 0.0, 3: 'x', **more}\noverrides.update(steps=4)\n"
              "self.args = {'depth': 2}\nConfig(**self.args)\n"
              "report = {'height': 1, 'miou': 0.5, **extra}\nlog = dict(n_points=3)\n"
              "log.update(frames=2)\nopt = SGD(p, lr=0.1, **log)\n"
              "name = 'frames'\ncfg.momentum = 0.5\nspec = Config(4, *rest, 5)\n"
              "Grid(6, 7, 8)\n")
    assert settings(source, "Config", ("width", "height", "depth")) == {
        "seed", "stages", "lambda_c", "steps", "depth", "width"}
    # Report keys that name no recipe field a call sets are not credited.
    cli = (PACKAGE / "cli.py").read_text()
    assert settings(cli, "NoSuchRecipe", ("n_bins", "bin_grids", "grid", "lambda_c")) == set()


SEEDED = ("synth_frames", "synth_sequence")


def arithmetic_seeds(source: str) -> list[int]:
    """Lines of the calls to `synth_frames` or `synth_sequence`, by name or as
    an attribute, whose seed (third argument or ``seed=``) holds arithmetic."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None)
                                           or getattr(node.func, "attr", None)) in SEEDED:
            seeds = node.args[2:3] + [k.value for k in node.keywords if k.arg == "seed"]
            if any(isinstance(n, ast.BinOp) for seed in seeds for n in ast.walk(seed)):
                lines.append(node.lineno)
    return lines


def test_only_the_scene_derives_a_sequence_seed():
    assert {f"{path.stem}:{line}" for path in sorted(PACKAGE.rglob("*.py")) if path.stem != "scene"
            for line in arithmetic_seeds(path.read_text())} == set()


def test_the_seed_finder_sees_them():
    # Guards the check above against a finder that finds nothing.
    source = ("a = synth_frames(spec, n, seed + 1000 * s, sequence_id=s)\n"
              "b = scene.synth_sequence(spec, n, seed=int(2 * seed))\n"
              "c = synth_sequence(spec, n, seed, sequence_id=s + 1)\n"
              "d = synth_frames(spec, n - 1, 3)\n")
    assert arithmetic_seeds(source) == [1, 2]
