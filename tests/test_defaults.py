"""Every defaulted parameter of a public module-level function of the
package is one that some caller sets, and every public module-level function
or class, and every public method of a public class, is used by the package,
perfbench or the demos.  A default that no call overrides is a fixed value,
and it belongs at its point of use; a function that only tests reach repeats
one that the program runs, or is dead.

A call sets a parameter when it names it, passes it by position, or
unpacks ``*args`` or ``**kwargs``; calls are matched by the function's name
alone (through ``import ... as``), so a method of the same name counts
too.  A definition is used where its name is read, as a name or an
attribute, outside the package's ``__init__``; a method is matched by its
name alone in the same way.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "l2mult"

# parameters that only tests set: ``main`` reads ``sys.argv`` when run as
# the command, and tests pass its arguments in directly
SET_ONLY_BY_TESTS = {("cli", "main", "argv")}

# public functions, classes and methods (``Class.method``) that only tests
# use
USED_ONLY_BY_TESTS = set()


def _defaulted_parameters():
    """(module, function, parameter, position or None) for every defaulted
    parameter of a public module-level function; keyword-only parameters
    have no position."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or \
                    node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out += [(path.stem, node.name, a.arg, i)
                    for i, a in enumerate(positional) if i >= first]
            out += [(path.stem, node.name, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
    return out


def _calls(*dirs):
    """name -> list of (positional count, keyword names) of every call, with
    an unpacking call recorded as setting everything."""
    out = {}
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text())
            # ``from m import f as g`` calls f as g
            alias = {a.asname: a.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     for a in node.names if a.asname}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                name = alias.get(name, name)
                unpacks = any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords)
                out.setdefault(name, []).append(
                    (float("inf") if unpacks else len(node.args),
                     None if unpacks else {k.arg for k in node.keywords}))
    return out


def _set_by(calls, func, param, position):
    return any(keywords is None or param in keywords or
               (position is not None and position < n_pos)
               for n_pos, keywords in calls.get(func, ()))


def test_every_defaulted_parameter_is_set_by_a_caller():
    calls = _calls("src", "perfbench", "demos")
    unset = {(module, func, param)
             for module, func, param, position in _defaulted_parameters()
             if not _set_by(calls, func, param, position)}
    # a new default that nothing sets fails here, and so does an allowlist
    # entry that a source call now sets or that is gone
    assert unset == SET_ONLY_BY_TESTS


def test_parameters_left_to_tests_are_set_by_tests():
    calls = _calls("tests")
    positions = {(module, func, param): position
                 for module, func, param, position in _defaulted_parameters()}
    for module, func, param in sorted(SET_ONLY_BY_TESTS):
        assert _set_by(calls, func, param,
                       positions[(module, func, param)]), (func, param)


def _public_definitions():
    """Public module-level functions and classes, and the public methods of
    public classes as ``Class.method``."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            out.add(node.name)
            if isinstance(node, ast.ClassDef):
                out |= {f"{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_")}
    return out


def _name(definition):
    """The name a definition is read by: a method's own name."""
    return definition.rsplit(".", 1)[-1]


def _names_read(*dirs):
    """Every name and attribute read in the Python files under ``dirs``,
    outside the package's ``__init__``."""
    out = set()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    out.add(node.id)
                elif isinstance(node, ast.Attribute):
                    out.add(node.attr)
    return out


def test_every_public_definition_is_used_outside_tests():
    names = _names_read("src", "perfbench", "demos")
    unused = {d for d in _public_definitions() if _name(d) not in names}
    # a new definition that only tests reach fails here, and so does an
    # allowlist entry that the program now uses or that is gone
    assert unused == USED_ONLY_BY_TESTS


def test_definitions_left_to_tests_are_used_by_tests():
    assert {_name(d) for d in USED_ONLY_BY_TESTS} <= _names_read("tests")
