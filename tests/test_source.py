"""Checks on the source tree and its documentation: no unused imports, no
unreferenced definitions, one solver loop, one metric that solves, and a
README whose library examples run, whose command lines parse and whose trace
columns are the solver's."""

import ast
import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "opsplit").glob("*.py"))


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations such as "Optional[CriterionReport]"
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef) and n.returns]
    for node in (c for a in annotations for c in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return sorted("%s:%d %s" % (path.name, line, name)
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_check_can_fail(tmp_path):
    src = tmp_path / "mod.py"
    # a docstring naming an import does not use it; a string annotation does
    src.write_text('"""List"""\nimport math\n'
                   'from typing import List, Optional\n'
                   'x: "Optional[int]" = None\n')
    assert _unused_imports(src) == ["mod.py:2 math", "mod.py:3 List"]


def _unreferenced_definitions(paths):
    """Functions, classes and methods, dunders excepted, whose name no
    expression in ``paths`` reads (a name or an attribute in load context)."""
    defined, used = {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not re.fullmatch(r"__\w+__", node.name)):
                defined.setdefault(node.name,
                                   "%s:%d" % (path.name, node.lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
    return sorted("%s %s" % (where, name) for name, where in defined.items()
                  if name not in used)


def test_every_definition_is_referenced():
    # code that only the tests reach belongs in tests/
    assert _unreferenced_definitions(SOURCES) == []


def test_unreferenced_definition_check_can_fail(tmp_path):
    src = tmp_path / "mod.py"
    # a docstring or an assignment naming a definition does not reference it
    src.write_text('"""unused"""\n'
                   'def used():\n    pass\n'
                   'def unused():\n    pass\n'
                   'class Box:\n'
                   '    def __init__(self):\n        self.helper = used()\n'
                   '    def method(self):\n        pass\n'
                   '    def helper(self):\n        pass\n'
                   'Box().method()\n')
    assert _unreferenced_definitions([src]) == ["mod.py:11 helper",
                                                "mod.py:4 unused"]


def test_multi_block_solver_runs_in_the_kernel_loop():
    # certification, the step, the schedule check and the abort record live
    # in hpe_core.run only
    text = (ROOT / "src" / "opsplit" / "padmm_ebb.py").read_text()
    for name in ("certify", "extragradient_step", "validate_metric_update",
                 "attach_partial_run", "IterRecord"):
        assert not re.search(r"\b%s\b" % name, text), name


def test_only_the_block_diagonal_metric_solves():
    # step oracles hand the kernel c M^-1 v, so metrics only apply; the
    # multi-block solver inverts its BB metric, and Cholesky is a prefactored
    # linear solve, not a metric
    solving = {node.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(f, ast.FunctionDef) and f.name == "solve"
                       for f in node.body)}
    assert solving == {"Metric", "BlockDiagonalMetric", "Cholesky"}


def test_readme_library_examples_run(capsys):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    out = capsys.readouterr().out.split()
    assert out.count("True") == 2  # both solves converge


def test_readme_command_lines_parse(capsys):
    from opsplit.cli import build_parser

    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    commands = [m.group(1) for block in blocks
                for m in re.finditer(r"\bopsplit (.*)",
                                     block.replace("\\\n", " "))]
    assert len(commands) == 6
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command))
    # a flag the parser does not know fails the parse
    with pytest.raises(SystemExit):
        parser.parse_args(shlex.split(commands[0]) + ["--beta-warmup"])
    capsys.readouterr()


def test_readme_lists_the_multi_block_trace_columns():
    from opsplit.padmm_ebb import PADMM_COLUMNS

    text = " ".join((ROOT / "README.md").read_text().split())

    def listed(lead):
        found = re.findall(re.escape(lead) + r" `([a-z_,]+)`", text)
        assert len(found) == 1, lead
        return found[0].split(",")

    assert listed("appends its default columns") == [
        name for name, _, opt_in in PADMM_COLUMNS if not opt_in]
    assert listed("opt-in columns") == [
        name for name, _, opt_in in PADMM_COLUMNS if opt_in]
    assert listed("in the order") == [name for name, _, _ in PADMM_COLUMNS]
