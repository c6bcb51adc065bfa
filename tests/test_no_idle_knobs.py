"""No parameter of the library has a default that no call of the library
ever overrides, and no name it exports goes unused by the library.

Such a parameter is a setting that always holds one value: every reader
must reason about the others, and every test must cover them, for nothing.
The scan parses ``src/betadio`` and, per function or method name, collects
what its calls pass by position and by keyword.  A value that a call only
forwards from a parameter of its own caller counts as set when that
parameter is.  The entry points listed below are the exceptions: each
mirrors a command-line option, which sets it through the command layer.

An exported name that nothing in ``src/betadio`` uses is a second way to do
what the library does another way, or a check that belongs in a test.  The
names the README documents, and those that mirror a command, are the
exceptions, each listed with its reason.
"""

import ast
from pathlib import Path

import betadio

PACKAGE = Path(betadio.__file__).parent
README = PACKAGE.parent.parent / "README.md"

# (module, function, parameter): the command-line option it mirrors
ENTRY_POINTS = {
    ("constructions", "generate_bary", "fill"): "construct bary|restricted --fill",
    ("exponents", "exponents_of_word", "kinds"): "exponents --zeros-only",
    ("cli", "main", "argv"): "the command line itself (sys.argv)",
}


def _defaulted(fn):
    """The parameters of ``fn`` that have a default, each with its position
    (None for keyword-only)."""
    args = fn.args.posonlyargs + fn.args.args
    out = {a.arg: i for i, a in enumerate(args[len(args) - len(fn.args.defaults):],
                                           len(args) - len(fn.args.defaults))}
    out.update({a.arg: None for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None})
    return out


def _parsed(package):
    """Each module of the package, as (module name, syntax tree)."""
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(package.rglob("*.py"))]


def _scan(package):
    """The default-valued parameters, keyed (module, name, parameter), and
    per key the calls that set it: each None when it passes a value of its
    own, or the key of the caller's parameter that it forwards."""
    params, sets, inits = {}, {}, set()
    calls = []  # (call, (module, name) of the function it is in)

    def visit(node, module, owner, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = owner if child.name == "__init__" and owner else child.name
                if name != child.name:
                    inits.add(name)
                method = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                for arg, pos in _defaulted(child).items():
                    if pos is not None and method:
                        pos -= 1  # self or cls is not passed
                    params[module, name, arg] = pos
                    sets[module, name, arg] = []
                visit(child, module, None, (module, name))
            elif isinstance(child, ast.ClassDef):
                visit(child, module, child.name, enclosing)
            else:
                if isinstance(child, ast.Call):
                    calls.append((child, enclosing))
                visit(child, module, owner, enclosing)

    for module, tree in _parsed(package):
        visit(tree, module, None, None)

    by_name = {}
    for key in params:
        by_name.setdefault(key[1], []).append(key)
    for call, enclosing in calls:
        f = call.func
        called = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if called == "__init__":  # super().__init__(...): any class's
            keys = [k for k in params if k[1] in inits]
        else:
            keys = by_name.get(called, [])
        splat = any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords)
        given = {k.arg: k.value for k in call.keywords if k.arg}
        for key in keys:
            pos = params[key]
            if splat:
                value = ast.Constant(None)
            elif key[2] in given:
                value = given[key[2]]
            elif pos is not None and pos < len(call.args):
                value = call.args[pos]
            else:
                continue
            forwarded = None
            if isinstance(value, ast.Name) and enclosing is not None:
                forwarded = (*enclosing, value.id) if (*enclosing, value.id) in params else None
            sets[key].append(forwarded)
    return params, sets


def idle_parameters(package=PACKAGE):
    """The default-valued parameters that no call sets, as (module, name,
    parameter): a forwarded value sets a parameter once the caller's own
    parameter it forwards is set."""
    params, sets = _scan(package)
    live = {k for k, s in sets.items() if None in s}
    grown = True
    while grown:
        more = {k for k, s in sets.items() if k not in live and live.intersection(s)}
        live |= more
        grown = bool(more)
    return sorted(set(params) - live)


def test_every_default_is_set_by_some_call():
    idle = [k for k in idle_parameters() if k not in ENTRY_POINTS]
    assert not idle, f"default-valued parameters that no call sets: {idle}"


def test_each_entry_point_is_still_a_parameter_that_no_call_sets():
    """An exemption that no longer names an idle parameter goes."""
    assert set(ENTRY_POINTS) <= set(idle_parameters())


def test_the_scan_sees_positional_keyword_and_forwarded_values(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, c=2, d=3, *, e=4):\n    pass\n"
        "def g(x, y=0):\n    f(x, 5, c=6)\n    h(y)\n"
        "def h(z=0):\n    pass\n"
        "class K:\n    def __init__(self, u=0, v=0):\n        pass\n"
        "    def m(self, w=0):\n        pass\n"
        "K(1).m(2)\n")
    assert idle_parameters(tmp_path) == [("m", "K", "v"), ("m", "f", "d"), ("m", "f", "e"),
                                 ("m", "g", "y"), ("m", "h", "z")]


# exported names that nothing in the package uses: why each stays
NAMED_IN_README = "the README names it"
UNCALLED_EXPORTS = {
    "generate_bary": NAMED_IN_README,
    "expand_rational": NAMED_IN_README,
    "read_digit_file": NAMED_IN_README,
    "expand_lacunary": "mirrors expand --lacunary",
    "exponents_of_word": "mirrors exponents",
    "write_digit_file": "mirrors -o",
}


def uncalled_exports(package=PACKAGE, exported=tuple(betadio._HOME)):
    """The exported names that no code of the package refers to, sorted.

    A reference is a name read or an attribute taken: neither a name's own
    ``def`` or ``class``, nor an import of it, nor ``_LAYERS``' string is one."""
    used = set()
    for _module, tree in _parsed(package):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(set(exported) - used)


def test_every_export_has_a_caller():
    uncalled = [name for name in uncalled_exports() if name not in UNCALLED_EXPORTS]
    assert not uncalled, f"exported names that nothing in src/ uses: {uncalled}"


def test_each_exempt_export_is_still_uncalled_and_documented():
    """An exemption whose name gains a caller goes; a README reason holds."""
    assert set(UNCALLED_EXPORTS) <= set(uncalled_exports())
    readme = README.read_text()
    missing = [name for name, why in UNCALLED_EXPORTS.items()
               if why == NAMED_IN_README and f"`{name}`" not in readme]
    assert not missing, f"not in README.md: {missing}"


def test_the_name_scan_skips_definitions_and_imports(tmp_path):
    (tmp_path / "m.py").write_text(
        "from .n import a\n"
        "def b():\n    return c.d\n"
        "class E:\n    pass\n"
        "def f(x: G) -> None:\n    b()\n")
    assert uncalled_exports(tmp_path, ("a", "b", "c", "d", "E", "f", "G", "h")) == \
        ["E", "a", "f", "h"]
