"""No module imports a name that it never reads, and no package modules
import each other in a cycle.

Stand-ins for a linter's rules that need only the standard library: a name
counts as read when some expression in the module loads it, and an import
counts toward a cycle wherever it stands, inside a function too.
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


def package_imports(module: str, source: str, modules: set[str]) -> set[str]:
    """The modules of ``modules`` that ``module`` (a dotted name) imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: drop the module's last `level` name parts
                parent = ".".join(module.split(".")[:-node.level])
                base = f"{parent}.{base}" if base else parent
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found & modules - {module}


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of ``graph`` as a closed path of module names, or [] if it has none."""
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        for target in sorted(graph[module]):
            cycle = visit(target, path + [module])
            if cycle:
                return cycle
        done.add(module)
        return []

    return next((c for c in (visit(m, []) for m in sorted(graph)) if c), [])


def test_import_cycle_counts_imports_inside_functions():
    modules = {"p.a", "p.b", "p.c"}
    graph = {"p.a": package_imports("p.a", "from .b import f\nimport p.c\n", modules),
             "p.b": package_imports("p.b", "def g():\n    from . import a\n", modules),
             "p.c": package_imports("p.c", "import os\n", modules)}
    assert graph == {"p.a": {"p.b", "p.c"}, "p.b": {"p.a"}, "p.c": set()}
    assert import_cycle(graph) == ["p.a", "p.b", "p.a"]
    assert import_cycle({**graph, "p.b": set()}) == []


def test_no_package_modules_import_each_other_in_a_cycle():
    sources = {f"adrcm.{p.stem}": p.read_text(encoding="utf-8")
               for p in (ROOT / "src/adrcm").glob("*.py") if p.stem != "__init__"}
    graph = {m: package_imports(m, source, set(sources)) for m, source in sources.items()}
    assert graph["adrcm.cli"]
    assert import_cycle(graph) == []
