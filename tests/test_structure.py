"""Module boundaries: no package module reaches into another one's private names.

Keeping the padding and truncation decisions behind public functions of
`spectral` is what lets them be written exactly once.
"""

import ast
import pathlib

import kdvbbm

PACKAGE = pathlib.Path(kdvbbm.__file__).resolve().parent


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "kdvbbm":
            continue
        source = "." * node.level + module
        if _is_private(module.split(".")[-1]):
            yield f"{path.name}:{node.lineno} imports from private module {source}"
        for alias in node.names:
            if _is_private(alias.name):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {source}"


def test_no_private_names_imported_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = [line for path in modules for line in _private_imports(path)]
    assert offenders == []
