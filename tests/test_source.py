"""Checks on the source tree and its documentation: no unused imports, no
unreferenced definitions, no import-time copy of a config default, one
solver loop, one metric that solves, and a README whose library examples
run, whose command lines parse and whose trace columns are the solver's."""

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


def _module_level_imports(path, package):
    """"file:line" of each import of ``package`` that runs when the module is
    imported: one outside every function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(n == package or n.startswith(package + ".")
                   for n in names):
                found.append("%s:%d" % (path.name, child.lineno))
            visit(child)

    visit(ast.parse(path.read_text()))
    return found


def test_no_module_imports_scipy_at_module_level():
    # a function that needs scipy imports it: importing opsplit then loads
    # none of it, and a solve only the parts it calls
    assert [where for path in SOURCES
            for where in _module_level_imports(path, "scipy")] == []


def test_module_level_import_check_can_fail(tmp_path):
    src = tmp_path / "mod.py"
    # an import under if, try or a class body runs at import; one in a
    # function does not, and neither does a package that only shares a prefix
    src.write_text('import scipy.linalg\n'
                   'if True:\n    from scipy import io\n'
                   'try:\n    import numpy, scipy\nexcept ImportError:\n'
                   '    pass\n'
                   'class Box:\n    import scipy.sparse as sp\n'
                   'def f():\n    import scipy.linalg\n'
                   'import scipyx\n')
    assert _module_level_imports(src, "scipy") == ["mod.py:1", "mod.py:3",
                                                   "mod.py:5", "mod.py:9"]


def _defaults_reading(path, owner):
    """"file:line" of each function default that reads an attribute of
    ``owner``: a copy of it made when the module is imported."""
    def reads(node):
        return isinstance(node, ast.Attribute) and owner in (
            getattr(node.value, "id", None), getattr(node.value, "attr", None))

    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            for default in node.args.defaults + node.args.kw_defaults:
                if default is not None and any(map(reads, ast.walk(default))):
                    found.append("%s:%d" % (path.name, default.lineno))
    return found


def test_no_function_default_copies_a_config_default():
    # a default read at import keeps the value it had then; a function
    # reads HpeConfig's defaults when it is called
    assert [where for path in SOURCES
            for where in _defaults_reading(path, "HpeConfig")] == []


def test_config_default_check_can_fail(tmp_path):
    src = tmp_path / "mod.py"
    # a read through a module, a keyword-only default and a lambda's count;
    # a read in the body and another class's attribute do not
    src.write_text('def f(s=HpeConfig.sigma):\n    pass\n'
                   'def g(*, x=hpe_core.HpeConfig.xi0):\n    pass\n'
                   'h = lambda t=min(HpeConfig.tol_residual, 1): t\n'
                   'def k(s=None):\n    return HpeConfig.sigma\n'
                   'def m(s=Other.sigma):\n    pass\n')
    assert _defaults_reading(src, "HpeConfig") == ["mod.py:1", "mod.py:3",
                                                   "mod.py:5"]


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
    # certification, the step, the schedule check, the abort record and the
    # trace rows live in hpe_core.run only: padmm_ebb declares its columns
    # and builds no trace row itself
    text = (ROOT / "src" / "opsplit" / "padmm_ebb.py").read_text()
    for name in ("check_criterion", "extragradient_step",
                 "validate_metric_update", "_Step"):
        assert not re.search(r"\b%s\b" % name, text), name
    for pattern in (r"\bIterTrace\(", r"\btrace\.append\b", r"\.to_csv\b"):
        assert not re.search(pattern, text), pattern


def test_only_the_kernel_loop_names_the_failing_iteration():
    # a check raises its own message; hpe_core.run's handler prefixes the
    # iteration of every abort, whichever module raised it
    counts = {path.name: len(re.findall(r"[\"']iteration %d",
                                        path.read_text()))
              for path in SOURCES}
    assert {name: n for name, n in counts.items() if n} == {"hpe_core.py": 1}


def _column_tables(paths):
    """{"file:NAME": column names} of each (name, producer) table in
    ``paths``: a tuple or list of pairs of a string and a function."""
    tables = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, (ast.Tuple, ast.List))
                    and node.value.elts):
                continue
            pairs = node.value.elts
            if all(isinstance(p, ast.Tuple) and len(p.elts) == 2
                   and isinstance(p.elts[0], ast.Constant)
                   and isinstance(p.elts[0].value, str)
                   and isinstance(p.elts[1], (ast.Lambda, ast.Name,
                                              ast.Attribute))
                   for p in pairs):
                where = "%s:%s" % (path.name, ast.unparse(node.targets[0]))
                tables[where] = [p.elts[0].value for p in pairs]
    return tables


def _declared_more_than_once(tables):
    names = [name for columns in tables.values() for name in columns]
    return sorted({name for name in names if names.count(name) > 1})


def test_each_trace_column_is_declared_in_one_table():
    tables = _column_tables(SOURCES)
    assert set(tables) == {"hpe_core.py:TRACE_COLUMNS",
                           "padmm_ebb.py:PADMM_COLUMNS"}
    assert len(tables["hpe_core.py:TRACE_COLUMNS"]) == 13
    assert len(tables["padmm_ebb.py:PADMM_COLUMNS"]) == 5
    assert _declared_more_than_once(tables) == []


def test_column_declaration_check_can_fail(tmp_path):
    src = tmp_path / "mod.py"
    # a second table that declares a column again; a list of names alone
    # (a selection) declares nothing
    src.write_text('A = (("iter", lambda s: s.k), ("eps", abs))\n'
                   'B = [("eps", lambda s: s.eps)]\n'
                   'C = ("iter", "eps")\n')
    tables = _column_tables([src])
    assert tables == {"mod.py:A": ["iter", "eps"], "mod.py:B": ["eps"]}
    assert _declared_more_than_once(tables) == ["eps"]


def test_only_the_block_diagonal_metric_solves():
    # step oracles hand the kernel c M^-1 v, so metrics only apply; the
    # multi-block solver inverts its BB metric
    solving = {node.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               and any(isinstance(f, ast.FunctionDef) and f.name == "solve"
                       for f in node.body)}
    assert solving == {"Metric", "BlockDiagonalMetric"}


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
    from opsplit.hpe_core import DEFAULT_COLUMNS, GATE_COLUMNS
    from opsplit.padmm_ebb import OPT_IN_COLUMNS, PADMM_COLUMNS

    text = " ".join((ROOT / "README.md").read_text().split())

    def listed(lead):
        found = re.findall(re.escape(lead) + r" `([A-Za-z_,]+)`", text)
        assert len(found) == 1, lead
        return found[0].split(",")

    assert listed("writes the kernel's columns") == list(DEFAULT_COLUMNS)
    assert listed("gate columns") == list(GATE_COLUMNS)
    assert listed("appends its default columns") == [
        name for name, _ in PADMM_COLUMNS if name not in OPT_IN_COLUMNS]
    assert listed("opt-in columns") == list(OPT_IN_COLUMNS)
    assert listed("in the order") == [name for name, _ in PADMM_COLUMNS]
