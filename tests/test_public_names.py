"""A ratchet on public names that only the tests call.

A public module-level function or class of `src/elastodtn` counts as
referenced when another `src`, `scripts` or `benchmark` file names it (the
re-exports of `__init__.py` do not count), or when its own module uses it
in code beyond its definition and its `__all__` entry.  The unreferenced
names must be exactly `TEST_ONLY`: a new public function that only the
tests call fails here, and so does a listed one that gains a caller, until
the list shrinks.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "elastodtn"

TEST_ONLY = {
    "random_input_moments",
    "rellich_lhs_samples",
    "trace_bound_check",
    "form_continuity_check",
    "helmholtz_field_check",
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
