import ast
import hashlib
import importlib
import inspect
import types

import symq

PUBLIC_MODULES = (
    "budget", "catalog", "errors", "groups", "involutions",
    "quandles", "report", "specs", "torus",
)
# sha256 of the package's sorted public non-module names, one per line
API_DIGEST = "5f5a3786596242a41ebbda142007e0eae6c880ce2b95d0936a3ec57553cc9323"


def _top_level_bindings(module) -> set[str]:
    """Names a module binds itself at top level: defs, classes, assignments."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_public_api_is_the_modules_all_lists():
    union = set()
    for name in PUBLIC_MODULES:
        module = importlib.import_module(f"symq.{name}")
        listed = module.__all__
        assert len(set(listed)) == len(listed), name
        assert set(listed) <= _top_level_bindings(module), name
        union.update(listed)
    public = sorted(
        n for n, v in vars(symq).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert set(public) == union
    assert hashlib.sha256("\n".join(public).encode()).hexdigest() == API_DIGEST
    # __init__ lists no public name by hand: only __version__ and star imports
    for node in ast.parse(inspect.getsource(symq)).body:
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            assert names in (["*"], ["__version__"]), names
        else:
            assert isinstance(node, ast.Expr), ast.dump(node)  # the docstring
