"""Ratchets on public names that only the tests call and on private names
read across modules.

A public module-level function or class of `src/elastodtn` counts as
referenced when another `src`, `scripts` or `benchmark` file names it (the
re-exports of `__init__.py` do not count), or when its own module uses it
in code beyond its definition and its `__all__` entry.  The unreferenced
names must be exactly `TEST_ONLY`: a new public function that only the
tests call fails here, and so does a listed one that gains a caller, until
the list shrinks.

A private name (one leading underscore) of a package module that another
`src`, `scripts` or `benchmark` file imports, or reads as an attribute of
the module, is a cross-module private reference.  They must be exactly
`CROSS_MODULE_PRIVATE`, as (reader, "module._name"): a decision that a
second module reaches into fails here, and so does a listed reference that
goes, until the list shrinks.

A run decision has one owner: `RULE_CALLERS` pins, for each rule, the
modules of `src`, `scripts` and `benchmark` whose code calls it.

Every public method or property of a package class is read as an attribute
somewhere in `src`, `scripts` or `benchmark` code, and every name a module
there imports is used in its code or listed in its `__all__` (`__init__.py`
and `from __future__` are exempt); the one kept import is `KEPT_IMPORTS`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "elastodtn"

TEST_ONLY = set()

RULE_CALLERS = {
    # fem._finish_system sets the DtN modes, and no input can change them
    "nyquist_index": {"fem"},
    "Philox": {"model"},                  # only in model.keyed_generator
}

CROSS_MODULE_PRIVATE = {
    ("fem", "mesh._built_once"),
    ("fem", "mesh._weighted_sum"),
    ("montecarlo", "fem._single_thread_blas"),
}


KEPT_IMPORTS = {
    # benchmark/selftest.py checks that the tracer wraps this binding
    ("verify", "assemble_B_transformed"),
}


def _modules() -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _names_used(tree: ast.Module) -> set[str]:
    """Names loaded or read as attributes anywhere in the module's code
    (strings, such as `__all__` entries and docstrings, are not code)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _texts() -> dict[Path, str]:
    """The source of every module and of every script and benchmark file."""
    paths = _modules() + sorted((ROOT / "scripts").glob("*.py")) \
        + sorted((ROOT / "benchmark").glob("*.py"))
    return {path: path.read_text() for path in paths}


def _unreferenced(texts: dict[Path, str]) -> set[str]:
    out = set()
    for path in _modules():
        tree = ast.parse(texts[path])
        used = _names_used(tree)
        for name in _public_definitions(tree):
            word = re.compile(rf"\b{re.escape(name)}\b")
            elsewhere = any(word.search(text) for other, text in texts.items()
                            if other != path)
            if not (elsewhere or name in used):
                out.add(name)
    return out


def test_only_the_listed_names_are_test_only():
    assert _unreferenced(_texts()) == TEST_ONLY


def test_a_new_test_only_function_is_caught():
    # negative control: one more public function that nothing in src,
    # scripts or benchmark calls
    texts = _texts()
    texts[PACKAGE / "verify.py"] += (
        "\n\ndef only_tests_call_this():\n    pass\n")
    assert _unreferenced(texts) == TEST_ONLY | {"only_tests_call_this"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _imported_from(node: ast.ImportFrom) -> str | None:
    """The package module a `from ... import` names ("" for the package
    itself), or None for another package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module == "elastodtn":
        return ""
    if node.level == 0 and (node.module or "").startswith("elastodtn."):
        return node.module.split(".", 1)[1]
    return None


def _private_references(texts: dict[Path, str]) -> set[tuple[str, str]]:
    modules = {path.stem for path in _modules()}
    out = set()
    for path, text in texts.items():
        tree = ast.parse(text)
        aliases = {}      # local name -> package module
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = _imported_from(node)
            for alias in node.names:
                if source in modules and _private(alias.name):
                    out.add((path.stem, f"{source}.{alias.name}"))
                elif source == "" and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and _private(node.attr)):
                out.add((path.stem, f"{aliases[node.value.id]}.{node.attr}"))
    return out


def test_only_the_listed_private_names_cross_modules():
    assert _private_references(_texts()) == CROSS_MODULE_PRIVATE


def test_a_new_cross_module_private_reference_is_caught():
    # negative control: one attribute read and one import of another
    # module's private name
    texts = _texts()
    texts[PACKAGE / "cli.py"] += "\n\nREACH = verify._support_elements\n"
    texts[PACKAGE / "montecarlo.py"] += "\n\nfrom .fem import _factor\n"
    assert _private_references(texts) == CROSS_MODULE_PRIVATE | {
        ("cli", "verify._support_elements"), ("montecarlo", "fem._factor")}


def _rule_callers(texts: dict[Path, str]) -> dict[str, set[str]]:
    """For each rule of `RULE_CALLERS`, the modules whose code calls it,
    by its plain name or as an attribute."""
    out = {rule: set() for rule in RULE_CALLERS}
    for path, text in texts.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in out:
                out[name].add(path.stem)
    return out


def test_each_rule_has_its_owners():
    assert _rule_callers(_texts()) == RULE_CALLERS


def test_a_second_caller_of_a_rule_is_caught():
    # negative control: the ensemble working out its DtN modes itself
    texts = _texts()
    texts[PACKAGE / "montecarlo.py"] += (
        "\n\nN_MAX = nyquist_index(mesh_ref.nx)\n")
    assert _rule_callers(texts) == {
        **RULE_CALLERS, "nyquist_index": {"fem", "montecarlo"}}


def _unread_methods(texts: dict[Path, str]) -> set[str]:
    """The "Class.name" of each public method or property of a package
    class that no `src`, `scripts` or `benchmark` code reads as an
    attribute."""
    read = {node.attr for text in texts.values()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return {f"{cls.name}.{node.name}" for path in _modules()
            for cls in ast.parse(texts[path]).body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in read}


def test_every_public_method_is_read():
    assert _unread_methods(_texts()) == set()


def test_an_unread_method_is_caught():
    # negative control: a class whose one property nothing reads
    texts = _texts()
    texts[PACKAGE / "model.py"] += (
        "\n\nclass Planted:\n    @property\n"
        "    def nobody_reads_this(self):\n        return 0\n")
    assert _unread_methods(texts) == {"Planted.nobody_reads_this"}


def _all_entries(tree: ast.Module) -> set[str]:
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for elt in node.value.elts}


def _unused_imports(texts: dict[Path, str]) -> set[tuple[str, str]]:
    """(module, name) of each name a module imports and neither uses in
    its code nor lists in its `__all__`."""
    out = set()
    for path, text in texts.items():
        tree = ast.parse(text)
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {alias.asname or alias.name.split(".")[0]
                          for alias in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _all_entries(tree)
        out |= {(path.stem, name) for name in bound - used}
    return out


def test_every_import_is_used():
    assert _unused_imports(_texts()) == KEPT_IMPORTS


def test_an_unused_import_is_caught():
    # negative control: a module import, an aliased from-import and a
    # from-import that nothing reads; an unread import `__all__` lists passes
    texts = _texts()
    texts[PACKAGE / "dtn.py"] += (
        "\n\nimport os.path\nfrom .mesh import build_mesh as bm\n")
    texts[ROOT / "benchmark" / "planted.py"] = (
        "from elastodtn.errors import ConfigError, MeshError\n"
        "__all__ = [\"ConfigError\"]\n")
    assert _unused_imports(texts) == KEPT_IMPORTS | {
        ("dtn", "os"), ("dtn", "bm"), ("planted", "MeshError")}
