"""Hygiene of the package (imports, dead helpers, code-line count), checked with
the stdlib ast and tokenize modules."""

import ast
from pathlib import Path
import subprocess
import sys

import pytest

import minkval

PACKAGE = Path(minkval.__file__).parent
KERNEL_TESTS = Path(__file__).parent / "test_polytope.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """The names that the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    # the package has no runtime dependency: every import is relative,
    # __future__ or a standard-library module
    outside = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            tops = [node.module.split(".")[0]]
        else:
            continue
        outside += [t for t in tops if t != "__future__" and t not in sys.stdlib_module_names]
    assert outside == []


def test_public_names_resolve():
    missing = [name for name in minkval.__all__ if not hasattr(minkval, name)]
    assert missing == []


def test_kernel_oracle_shares_no_code():
    # the brute-force _o* helpers of the kernel tests must not reach minkval
    tree = ast.parse(KERNEL_TESTS.read_text())
    from_minkval = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("minkval")
        for alias in node.names
    } | {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("minkval")
    }
    helpers = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name.startswith("_o")]
    assert len(helpers) >= 5 and "convex_hull" in from_minkval
    shared = {
        (h.name, n.id)
        for h in helpers
        for n in ast.walk(h)
        if isinstance(n, ast.Name) and n.id in from_minkval
    }
    assert sorted(shared) == []


def _definitions(path):
    """The top-level functions and classes of a module, by name."""
    tree = ast.parse(path.read_text())
    return {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}


def _shared(definitions, forbidden):
    """(definition, name) for each identifier a definition names (_names_in)
    that forbidden accepts."""
    return sorted({(d.name, name) for d in definitions for name in _names_in(d) if forbidden(name)})


def test_oracle_pairs_share_no_code():
    # the harness checks each route of a pair against the other, so neither
    # may reach the other's code: the support evaluators against the
    # summands, the planar-integral route against the evaluators and the
    # duality map, and the facet-form mixed volume against the polarization
    val = _definitions(PACKAGE / "valuations.py")
    mixed = _definitions(PACKAGE / "mixed.py")
    evaluators = [d for name, d in val.items() if name.endswith("_support")]
    assert len(evaluators) == 6
    point_side = {"summands", "scale_point", "planar_atoms", "Cplx", "apply_valuation",
                  "_sum_points", "convex_hull", "det_image"}
    assert _shared(evaluators + [val["SupportEvaluator"]],
                   lambda n: n.endswith("_summands") or n in point_side) == []
    duality_side = {"SupportEvaluator", "integer_form", "apply_valuation", "det_duality_point",
                    "det_duality_inverse_point"}
    assert _shared([val["dual_diff_support_via_det"]],
                   lambda n: n.endswith("_support") or n in duality_side) == []
    assert _shared([mixed["mixed_volume_31"], mixed["mixed_volume_fn"]],
                   {"_sum_points", "mixed_volume"}.__contains__) == []


def _names_in(tree):
    """Every identifier the tree mentions: names, attributes, imported
    names, and string constants that are identifiers (perfbench names the
    functions it wraps by string)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[-1]
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_top_level_definition_is_named_elsewhere():
    # dead helpers are deleted: each top-level function and class of the
    # package is named in src, tests, demos or perfbench outside its own body
    root = PACKAGE.parent.parent
    files = [p for d in ("src", "tests", "demos", "perfbench") for p in (root / d).rglob("*.py")]
    trees = {p: ast.parse(p.read_text()) for p in files}
    counts = {}
    for tree in trees.values():
        for name in _names_in(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = sum(1 for name in _names_in(node) if name == node.name)
            if counts.get(node.name, 0) - inside == 0:
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


CODE_LINES = Path(__file__).parent / "code_lines.py"


def _code_lines(package):
    out = subprocess.run([sys.executable, str(CODE_LINES), str(package)],
                         capture_output=True, text=True, check=True).stdout
    return {name: int(n) for name, n in (line.split() for line in out.splitlines())}


def test_code_lines_counts_tokens_outside_docstrings(tmp_path):
    counts = _code_lines(PACKAGE)
    assert sorted(counts) == sorted([p.name for p in PACKAGE.glob("*.py")] + ["total"])
    assert counts["total"] == sum(n for name, n in counts.items() if name != "total") > 0
    (tmp_path / "mod.py").write_text(
        '"""A docstring\n\nover three lines."""\n\n# a comment\n'
        'def f(x):\n    """One line."""\n    # another comment\n    return x  # trailing\n'
    )
    assert _code_lines(tmp_path) == {"mod.py": 2, "total": 2}
