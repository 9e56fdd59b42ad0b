"""No module imports a name that it never reads.

A stand-in for a linter's unused-import rule that needs only the standard
library: a name counts as read when some expression in the module loads it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds `a`
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in bound:
            imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_unused_imports_finds_a_name_never_read():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(a.b, w)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: z"]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(p for d in ("src/adrcm", "tests", "demos") for p in (ROOT / d).glob("*.py"))
    assert paths
    found = [f"{p.relative_to(ROOT)} {hit}" for p in paths
             for hit in unused_imports(p.read_text(encoding="utf-8"))]
    assert found == []
