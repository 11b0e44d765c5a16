"""Source layout: every top-level function and class of the package,
every method of its classes and every field of its records is used by
the package itself, so code that only tests call lives in the tests;
every module-level import of a module is used in that module; only the
report boundaries catch every exception; the arithmetic and geometry
modules sit below the report layer; and the cubic module holds only
code that the surface suite runs."""

import ast
import sys
from collections import Counter
from pathlib import Path

import salemsurf
import salemsurf.cubic as cu
from salemsurf.suites import run_suite

SRC = Path(salemsurf.__file__).parent


def _names(node) -> Counter:
    """Every identifier node refers to, with its number of references:
    names, attributes and imports."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def test_every_top_level_definition_has_a_caller_in_src():
    statements = [stmt for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    used = [_names(stmt) for stmt in statements]
    unused = []
    for i, stmt in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in names
                   for j, names in enumerate(used) if j != i):
            unused.append(stmt.name)
    assert unused == []


def _broad_handlers(node, path: str) -> list:
    """For each bare `except`, or one naming Exception or BaseException,
    under node: the dotted path of the innermost function holding it."""
    out = []
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
            out += _broad_handlers(sub, f"{path}.{sub.name}")
            continue
        if isinstance(sub, ast.ExceptHandler) and (
                sub.type is None or getattr(sub.type, "id", None)
                in ("Exception", "BaseException")):
            out.append(path)
        out += _broad_handlers(sub, path)
    return out


def test_broad_exception_handlers_are_the_report_boundaries():
    """One report boundary: a check's exception becomes its leaf in one
    place, the suite runner's guard, which a check that must let the
    rest of its node run calls itself (the singular charts,
    match.parameter_transport). Besides it only the run-object table,
    which keeps a failed build for later needs and re-raises, catches
    every exception."""
    found = sorted(h for path in sorted(SRC.glob("*.py"))
                   for h in _broad_handlers(ast.parse(path.read_text()),
                                            path.stem))
    assert found == ["suites._guarded", "suites._run_objects.need"]


def test_every_module_level_import_is_used_in_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        loaded = {sub.id for sub in ast.walk(tree)
                  if isinstance(sub, ast.Name)}
        for stmt in tree.body:
            if (not isinstance(stmt, (ast.Import, ast.ImportFrom))
                    or getattr(stmt, "module", None) == "__future__"):
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in loaded:
                    unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_every_method_has_a_caller_in_src():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = sum((_names(tree) for tree in trees), Counter())
    unused = []
    for cls in (node for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)):
        for meth in cls.body:
            if (isinstance(meth, ast.FunctionDef)
                    and not meth.name.startswith("__")
                    and used[meth.name] == _names(meth)[meth.name]):
                unused.append(f"{cls.name}.{meth.name}")
    assert unused == []


def test_every_slot_field_is_read_in_src():
    """Every name in a class's __slots__ is read as an attribute
    somewhere in the package; a record field that nothing reads is
    built for nobody."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    read = {sub.attr for tree in trees for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)}
    unread = []
    for cls in (node for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)):
        for stmt in cls.body:
            if (isinstance(stmt, ast.Assign)
                    and [getattr(t, "id", None) for t in stmt.targets]
                    == ["__slots__"]):
                unread += [f"{cls.name}.{field}"
                           for field in ast.literal_eval(stmt.value)
                           if field not in read]
    assert unread == []


# the modules below the report layer: they compute, and never build or
# run a report
_BELOW_REPORT = ("gf2m", "unipoly", "multipoly", "cubic", "lattice",
                 "mod2space")


def test_computing_modules_import_no_report_or_suites():
    """No import in these modules, at module level or inside a
    function, names the report or suites module."""
    bad = []
    for mod in _BELOW_REPORT:
        tree = ast.parse((SRC / f"{mod}.py").read_text())
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom):
                names = [sub.module or ""] + [a.name for a in sub.names]
            elif isinstance(sub, ast.Import):
                names = [a.name for a in sub.names]
            else:
                continue
            if any(part in ("report", "suites")
                   for name in names for part in name.split(".")):
                bad.append(f"{mod}: line {sub.lineno}")
    assert bad == []


def test_surface_suite_runs_every_function_of_cubic():
    """Every function and method defined in cubic.py is called while
    the surface suite runs on the bundled data, so the module holds no
    code that only the cubic suite or the tests need."""
    path = cu.__file__
    defined = {(node.name, node.lineno)
               for node in ast.walk(ast.parse(Path(path).read_text()))
               if isinstance(node, ast.FunctionDef)}
    called = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == path:
            called.add((code.co_name, code.co_firstlineno))

    sys.setprofile(record)
    try:
        rep = run_suite("surface")
    finally:
        sys.setprofile(None)
    assert rep.ok()
    assert sorted(defined - called) == []
