"""Only ``freelie.ShapeCharacter`` turns partition-shape factors into
det(I - M), the multiplicity of eigenvalue 1 or a charpoly: no other
module of the package names the kernel's entry points."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rinfty"

# name -> the modules that may use it
ALLOWED = {"shape_charpoly": {"freelie"}, "split_at_one": {"freelie"},
           "_ShapeKernel": {"freelie", "intlinalg"}}


def _uses(tree):
    """(name, line) of every import, load or call of an ``ALLOWED`` name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_only_freelie_reads_the_shape_kernel():
    paths = sorted(SRC.glob("*.py"))
    assert {p.stem for p in paths} >= {"analysis", "cli", "freelie", "oracle"}
    offenders = [f"{p.name}:{line} {name}" for p in paths
                 for name, line in _uses(ast.parse(p.read_text()))
                 if name in ALLOWED and p.stem not in ALLOWED[name]]
    assert offenders == []
