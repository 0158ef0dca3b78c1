"""Every private name that src/quadnmr defines at module or class level is
read somewhere in src/quadnmr: a helper left behind by a deletion, or kept
only for the tests, fails here. And every private name that README.md names
in backticks is defined there: a name the README keeps after its deletion
fails. Read with ast, so nothing is imported."""

import ast
import re

from conftest import SEQUENCES_DIR


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined(body):
    """The names a module or class body binds, with those of its classes' bodies."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from _defined(node.body)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)


def private_names_never_read(paths) -> list[str]:
    """'module:name' of each private name the files define but none of them reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in set(_defined(tree.body)) if _is_private(name) and name not in read)


def private_names_never_defined(readme: str, paths) -> list[str]:
    """Each private name in a backticked span of readme that no file of paths
    defines at module or class level."""
    defined = {name for path in paths for name in _defined(ast.parse(path.read_text()).body)}
    named = {name for span in re.findall(r"`([^`]*)`", readme)
             for name in re.findall(r"(?<!\w)_\w+", span) if _is_private(name)}
    return sorted(named - defined)


def test_every_private_name_is_read_in_the_package():
    paths = sorted(SEQUENCES_DIR.parent.glob("*.py"))
    assert len(paths) >= 10
    assert private_names_never_read(paths) == []


def test_the_check_finds_a_name_nobody_reads(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import numpy as _np\n"
                      "_USED, _UNUSED = 1, 2\n"
                      "def _helper():\n    return _USED\n"
                      "class Box:\n    _kept = 0\n    _dead = property(lambda self: 0)\n"
                      "    def read(self):\n        return self._kept + _helper()\n")
    assert private_names_never_read([module]) == ["mod:_UNUSED", "mod:_dead", "mod:_np"]


def test_every_private_name_of_the_readme_is_defined_in_the_package():
    readme = (SEQUENCES_DIR.parents[2] / "README.md").read_text()
    paths = sorted(SEQUENCES_DIR.parent.glob("*.py"))
    assert "`_readout_plan`" in readme
    assert private_names_never_defined(readme, paths) == []


def test_the_readme_check_finds_a_name_nobody_defines(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("_KEPT = 1\nclass Box:\n    def _read(self):\n        return _KEPT\n")
    readme = ("`_KEPT`, `Box._read(x)` and `mod._gone`; `__init__`, a_b and _loose "
              "named outside backticks do not count\n")
    assert private_names_never_defined(readme, [module]) == ["_gone"]
