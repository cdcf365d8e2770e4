"""Only ``freelie.ShapeCharacter`` turns partition-shape factors into
det(I - M), the multiplicity of eigenvalue 1 or a charpoly: no other
module of the package names the kernel's entry points, Newton's
identities run only inside the kernel, and the one det(I - M) taken of a
matrix is the degree-1 cokernel count that ``crosscheck --matrix``
compares the brute-force count against."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rinfty"

# name -> the modules that may use it
ALLOWED = {"shape_charpoly": {"freelie"}, "split_at_one": {"freelie"},
           "_ShapeKernel": {"freelie", "intlinalg"}}

NEWTON = {"_power_sums", "_monic_from_power_sums"}


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert {p.stem for p in paths} >= {"analysis", "cli", "freelie",
                                       "intlinalg", "oracle"}
    return [(p, ast.parse(p.read_text())) for p in paths]


def _names(node):
    """Names that ``node`` imports, loads or reads as an attribute."""
    if isinstance(node, ast.ImportFrom):
        return {a.name for a in node.names}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _scoped(node, scope=()):
    """(node, names of the enclosing classes and functions) for every node."""
    yield node, scope
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, scope)


def _is_fixed_point_det(node):
    """``(IntMatrix.identity(n) - m).det()``"""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "det"):
        return False
    diff = node.func.value
    return (isinstance(diff, ast.BinOp) and isinstance(diff.op, ast.Sub)
            and isinstance(diff.left, ast.Call)
            and isinstance(diff.left.func, ast.Attribute)
            and diff.left.func.attr == "identity")


def test_only_freelie_reads_the_shape_kernel():
    offenders = [f"{p.name}:{node.lineno} {name}" for p, tree in _modules()
                 for node in ast.walk(tree) for name in _names(node)
                 if name in ALLOWED and p.stem not in ALLOWED[name]]
    assert offenders == []


def test_newton_identities_run_only_in_the_shape_kernel():
    uses = [(p.stem, scope[:1], node.lineno) for p, tree in _modules()
            for node, scope in _scoped(tree) if _names(node) & NEWTON]
    assert uses
    kernel = ("intlinalg", ("_ShapeKernel",))
    assert [u for u in uses if u[:2] != kernel] == []


def test_one_fixed_point_det_in_the_package():
    dets = [(p.stem, scope) for p, tree in _modules()
            for node, scope in _scoped(tree) if _is_fixed_point_det(node)]
    assert dets == [("oracle", ("abelian_reidemeister_count",))]
