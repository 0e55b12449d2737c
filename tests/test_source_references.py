"""Every function, method and class under src/eisperiods/ has a reference in
src/: a name, an attribute or an imported name that is not inside its own
definition.  A definition with none is a second path or API that only its
tests use, and is removed, unless ALLOWED names it with the reason it stays.

The scan is by name, so a method counts as referenced by any attribute of
its name; dunder methods, which Python calls itself, are not scanned.
"""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eisperiods"

ALLOWED = {
    # operations of the benchmark's cocycle-sweep workload
    "InducedCochain.copy",
    "evaluate_cocycle",
    "shapiro_descend",
    # identities of the paper, kept as checks
    "dd_m_by_raising",
    "dd_m_symmetric_form",
    "eichler_integral",
    "eichler_integral_dtau",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.AST) -> Counter:
    """Every name, attribute and imported name in tree, with its count."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def definitions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of every definition under node, nested ones
    included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            name = prefix + child.name
            yield name, child
            yield from definitions(child, name + ".")
        else:
            yield from definitions(child, prefix)


def source_trees() -> list:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]


def reference_counts() -> dict:
    """The number of references in src/ to each definition there, dunders
    excluded, by qualified name; references inside the definition's own
    body, such as a recursive call, do not count."""
    trees = source_trees()
    everywhere = sum((references(tree) for tree in trees), Counter())
    return {
        qualname: everywhere[node.name] - references(node)[node.name]
        for tree in trees
        for qualname, node in definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
    }


def test_every_definition_has_a_reference_in_src():
    counts = reference_counts()
    assert sorted(name for name, n in counts.items() if n == 0 and name not in ALLOWED) == []


def test_allowed_names_are_unreferenced_definitions():
    # an entry whose definition went, or gained a reference, is dropped
    counts = reference_counts()
    assert {name: counts.get(name) for name in ALLOWED} == dict.fromkeys(ALLOWED, 0)


def test_divisor_pairs_have_one_reader():
    """Every Fourier kind sums its divisor pairs through the one twisted-
    divisor kernel: `_twisted_divisor_sums` is the only reader of
    `_divisor_pairs` in src/, so no second per-pair loop can come back."""
    inside = sum(
        references(node)["_divisor_pairs"]
        for tree in source_trees()
        for name, node in definitions(tree)
        if name == "_twisted_divisor_sums"
    )
    assert reference_counts()["_divisor_pairs"] == inside >= 1
