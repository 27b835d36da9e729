"""The package's surface: `compseg.__all__` is exact and `import *` resolves it,
run-time imports stay light, no module imports a name it never reads or a
sibling's private name, no top-level name is left unread, and every compseg
name the benchmark reaches exists."""
import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import compseg

# Every name `from compseg import *` gives. A name leaves this list together
# with its code; one that stayed behind in `__all__` would break only `import *`.
PUBLIC = (
    "AblationReport",
    "BoundingBox",
    "CandidateMaps",
    "ChallengeConfig",
    "ClassModel",
    "CompsegError",
    "FeatureMap",
    "FormatError",
    "LikelihoodMaps",
    "Manifest",
    "MiouTable",
    "MixtureModel",
    "ModelBundle",
    "ObjectRecord",
    "OccluderModel",
    "OrderEdge",
    "SceneAnnotation",
    "SceneResult",
    "TrainConfig",
    "TrainReport",
    "TrainingError",
    "ValidationError",
    "VmfDictionary",
    "__version__",
    "annotation_from_json",
    "annotation_to_json",
    "classify",
    "crop",
    "dataset_order_accuracy",
    "feed_forward",
    "full_graph_accuracy",
    "generate_challenge",
    "likelihood_maps",
    "load_feature_map",
    "load_manifest",
    "load_model",
    "load_scene",
    "log_normalizer",
    "miou_by_level",
    "order_accuracy",
    "predict_scene",
    "recover_order",
    "run_ablation",
    "save_feature_map",
    "save_model",
    "segment_scene",
    "segment_single",
    "train",
)


def test_all_lists_each_public_name_once():
    assert len(compseg.__all__) == len(set(compseg.__all__))
    assert sorted(compseg.__all__) == sorted(PUBLIC)


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from compseg import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)
    for name in PUBLIC:
        assert namespace[name] is getattr(compseg, name)


def test_only_the_package_lists_public_names():
    """`compseg.__all__` is the one list of public names; a module's own
    `__all__` would be a second list that nothing checks."""
    defining = [
        path.name for path in sorted((ROOT / "src" / "compseg").glob("*.py"))
        if any(isinstance(node, ast.Name) and node.id == "__all__"
               and isinstance(node.ctx, ast.Store)
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert defining == ["__init__.py"]


def test_runtime_imports_load_no_scipy():
    """SciPy is a test-only dependency: no runtime module imports it.

    Nor does training's shape median load `numpy.ma`, as `np.median` would.
    """
    code = (
        "import sys, compseg, compseg.cli, compseg.oracle\n"
        "from compseg.learning import canonical_shape\n"
        "assert canonical_shape([(4, 10), (6, 12)]) == (5, 11)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["[]", "[]"]


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names `path` imports but never reads, as "file:line name".

    A name counts as read when it is loaded anywhere in the module or listed
    in its `__all__`. An alias on a line marked `# noqa: F401` is exempt.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in read]


def test_every_imported_name_is_read():
    files = sorted((ROOT / "src" / "compseg").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 20
    unused = [hit for path in files for hit in _unused_imports(path)]
    assert unused == []


def _private_imports(path: pathlib.Path) -> list[str]:
    """Underscore names `path` imports from a sibling module, as "file:line
    module.name". `from . import _kernels` imports a module, not a name of
    one, and is not counted."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.level or node.module.startswith("compseg.")
        ):
            hits += [f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                     for alias in node.names if alias.name.startswith("_")]
    return hits


def test_no_module_imports_a_private_name_of_a_sibling():
    """A private name is its own module's to change; a sibling that imported
    one would restate that module's work in a second home."""
    files = sorted((ROOT / "src" / "compseg").glob("*.py"))
    assert [hit for path in files for hit in _private_imports(path)] == []


def _benchmark_names() -> set[tuple[str, str]]:
    """(module, name) pairs that `perfbench/*.py` reads on compseg.

    Collected: the names `from compseg.x import ...` binds; for the modules
    `from compseg import ...` binds, the attributes read on them and the
    (module, "name") pairs passed to `patch`, `delattr` or a `getattr`
    without a default, or written as the first two items of a tuple (the
    tables the benchmark loops over). A `getattr` with a default is exempt:
    its name may be missing.
    """
    names: set[tuple[str, str]] = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "compseg":
                for alias in node.names:
                    sub = f"{node.module}.{alias.name}"
                    if node.module == "compseg" and importlib.util.find_spec(sub):
                        modules[alias.asname or alias.name] = sub
                    else:
                        names.add((node.module, alias.name))

        def pair(args):
            module, name = args[:2]
            if (isinstance(module, ast.Name) and module.id in modules
                    and isinstance(name, ast.Constant) and isinstance(name.value, str)):
                names.add((modules[module.id], name.value))

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    names.add((modules[node.value.id], node.attr))
            elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
                pair(node.elts)
            elif isinstance(node, ast.Call) and len(node.args) >= 2:
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called in ("patch", "delattr") or (called == "getattr" and len(node.args) == 2):
                    pair(node.args)
    return names


def test_every_compseg_name_the_benchmark_reaches_exists():
    """The benchmark patches and reads compseg names by string; a rename or a
    deletion on this side would break it only when it runs."""
    names = _benchmark_names()
    assert ("compseg.orm", "likelihood_maps") in names
    assert ("compseg._kernels", "engine") not in names
    assert len(names) > 30
    missing = [
        f"{module}.{name}" for module, name in sorted(names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def _top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def _names_read(tree: ast.Module) -> set[str]:
    """Names loaded, read as an attribute or imported by name anywhere in `tree`."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_top_level_name_is_read():
    """A helper a refactor leaves behind fails here, not in a later review.

    A private top-level name of `src/compseg` must be read in `src/compseg`;
    a public one in `src/compseg`, `tests/` or `perfbench/`, or be listed in
    `compseg.__all__`.
    """
    package = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "src" / "compseg").glob("*.py"))}
    in_package = set().union(*map(_names_read, package.values()))
    elsewhere = set(compseg.__all__).union(
        *(_names_read(ast.parse(p.read_text(encoding="utf-8")))
          for d in ("tests", "perfbench") for p in sorted((ROOT / d).glob("*.py"))),
        (name for _, name in _benchmark_names()),
    )
    defined = [(path, name) for path, tree in package.items() for name in _top_level_names(tree)]
    assert len(defined) > 200
    unread = [
        f"{path.relative_to(ROOT)} {name}" for path, name in defined
        if name not in in_package and (name.startswith("_") or name not in elsewhere)
    ]
    assert unread == []


def _object_new_scopes(tree: ast.Module) -> list[str]:
    """The qualified name of the scope of each `object.__new__` in `tree`."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif (isinstance(child, ast.Attribute) and child.attr == "__new__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                found.append(".".join(scope))
            visit(child, inner)

    visit(tree, ())
    return found


def test_one_unchecked_constructor():
    """Each type has one constructor, its checked one, save one exception:
    `FeatureMap._trusted` wraps a crop's view without copying or renormalising
    rows its scene map already checked. A second way to build a type past
    its checks fails here."""
    scopes = [
        f"{path.name}:{scope}"
        for path in sorted((ROOT / "src" / "compseg").glob("*.py"))
        for scope in _object_new_scopes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert scopes == ["fmap.py:FeatureMap._trusted"]


_JSON_CALLS = {"dumps", "dump", "loads", "load"}


def _json_uses(tree: ast.Module) -> list[str]:
    """Each `json.dumps`, `json.dump`, `json.loads` or `json.load` that `tree`
    reaches, through the module or through a name imported from it."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _JSON_CALLS
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append(f"json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [f"json.{a.name}" for a in node.names if a.name in _JSON_CALLS | {"*"}]
    return found


def test_json_is_written_and_parsed_in_formats_only():
    """`formats.json_text` writes JSON text and one parser reads it, so that
    every file keeps one spelling and none holds a NaN or Infinity token. A
    module that called `json` itself would bypass both."""
    uses = [
        f"{path.name}:{use}"
        for path in sorted((ROOT / "src" / "compseg").glob("*.py"))
        for use in _json_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(uses) == ["formats.py:json.dumps", "formats.py:json.loads"]
