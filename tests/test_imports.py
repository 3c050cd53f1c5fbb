"""No dead code at module level: every import is used, every private helper is read.

No linter is part of the toolchain, so this walks the syntax tree instead: a
name bound by a top-level import must appear as a name (or the root of an
attribute chain) somewhere in the module, or be re-exported through
``__all__``.  ``from __future__`` imports are exempt.  A module-level private
function, class or constant (one leading underscore) must be read by its own
module outside the statement that defines it, or by a module that imports it.

The public surface gets the same treatment: every function a module exports
through ``__all__`` must be read, and every defaulted parameter of one must be
passed, by the package itself, a demo or the benchmark (tests do not count).
So must every public method of an exported class, and every defaulted field
of an exported frozen dataclass.  An exemption from these rules lasts only
while its option stays unpassed or its function uncalled.

No ad-hoc slack: the one float literal below 1e-6 in the package is the value
of ``fourier._FLOAT_SLACK``, the relative slack its float gates share.

No undocumented refusal: every function of the package that raises
``BudgetError`` is named in the README's Budgets section.

No unledgered claim: every claim name in the ``checks`` of a ``Certificate``
subclass has a row in the README's "What is verified" table, and every row
names such a claim.

One place decides where an operation applies: ``NotApplicable`` is
constructed in ``groups._require`` alone, and ``suite.py`` reads no group
kind and names no ``is_prime``, so its checks skip only what the library
refuses.

One place decides a verdict or an exit code: every check registered in
``suite.INSTANCE_CHECKS`` returns a ``_verdict(...)`` call, so it judges
certificates by ``ok``, and ``cli.main`` is the one function of the CLI that
returns an exit code (is annotated ``int`` or returns an int literal).

One witness budget, covering's: every check registered in
``suite.INSTANCE_CHECKS`` takes the instance alone, ``SuiteConfig``'s fields
are the checks, the seed and the timing switch, and no command of
``cli._build_parser()`` defines ``--budget``.

One place computes character magnitudes: ``np.fft`` is read in
``fourier._fft_magnitudes`` alone, and a complex exponential (an ``exp``
call with an imaginary literal in its argument), the term of a direct
character sum, is taken in ``fourier._unit_roots`` alone.

One place enumerates multisets: ``combinations_with_replacement`` is read
in ``rectify._multiset_table`` alone.

Object dtype only in named places: the name ``object`` is read as a dtype in
``groups._mul_mod``, the one place an index product is taken past int64, in
``rectify.freiman_iso_check`` for k-term sums past int64, and in
``fourier._count_chain`` and ``fourier.moment_chain`` for exact counts.  The
root of an attribute (``object.__new__``) and an annotation are no such read.
"""

import argparse
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import addcomb.cli as cli_mod
import addcomb.fourier as fourier_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "addcomb"


def _library() -> dict:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Names bound by top-level imports of source that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_detects_an_unused_import():
    src = "import math\nfrom typing import Tuple, List\nx: Tuple = math.pi\n"
    assert unused_imports(src) == ["List (line 2)"]


def test_reexport_through_all_counts_as_use():
    assert unused_imports("from .groups import GSet\n__all__ = ['GSet']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def _private_names(stmt: ast.stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(stmts) -> Counter:
    """How often each name is loaded, or read as an attribute, anywhere in stmts."""
    out = Counter()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out[node.id] += 1
            elif isinstance(node, ast.Attribute):
                out[node.attr] += 1
    return out


def _imported_as(tree: ast.Module, module: str, name: str) -> list:
    """Local names under which tree imports name from the sibling module."""
    return [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
        if alias.name == name
    ]


def dead_private_names(sources: dict) -> list:
    """Module-level private names of the package (module name -> source) that nothing reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    dead = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            for name in _private_names(stmt):
                if name in _reads(s for s in tree.body if s is not stmt):
                    continue
                if any(
                    local in _reads(other.body)
                    for other_mod, other in trees.items()
                    if other_mod != mod
                    for local in _imported_as(other, mod, name)
                ):
                    continue
                dead.append(f"{mod}.{name} (line {stmt.lineno})")
    return sorted(dead)


def test_detects_a_dead_private_helper():
    src = "def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n\nX = _used()\n_UNREAD = 3\n"
    assert dead_private_names({"a": src}) == ["a._UNREAD (line 8)", "a._dead (line 4)"]


def test_read_by_an_importing_module_counts():
    sources = {"a": "_K = 1\n", "b": "from .a import _K as k\nY = k\n", "c": "from .a import _K\n"}
    assert dead_private_names(sources) == []
    assert dead_private_names({"a": sources["a"], "c": sources["c"]}) == ["a._K (line 1)"]


def test_library_has_no_dead_private_helper():
    assert dead_private_names(_library()) == []


# ------------------------------------------------------------------ public surface

# main(argv) is the CLI's test seam: the console script calls main() with none.
OPTION_EXEMPT = {"cli.main(argv)"}
# dump_instances writes the instance files that load_instances reads.
CALLER_EXEMPT = {"serialize.dump_instances"}


def _caller_sources() -> dict:
    """The package's modules by name, and the demo and benchmark scripts by path, test files left out."""
    callers = _library()
    for path in sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]):
        if not path.name.startswith("test_"):
            callers[str(path.relative_to(ROOT))] = path.read_text()
    return callers


def _public_functions(sources: dict) -> list:
    """(module, module-level def) for every function a module of the package exports through __all__."""
    out = []
    for mod, src in sources.items():
        tree = ast.parse(src)
        exported = _exported(tree)
        out += [(mod, stmt) for stmt in tree.body if isinstance(stmt, ast.FunctionDef) and stmt.name in exported]
    return out


def _defaulted(fn: ast.FunctionDef) -> list:
    """(position or None, name) of each parameter of fn that has a default."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    kwonly = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [(i, a.arg) for i, a in enumerate(pos) if i >= first] + [(None, a.arg) for a in kwonly]


def _calls_by_name(callers: dict) -> dict:
    """Every call in the caller sources, keyed by the called name or attribute."""
    out = {}
    for src in callers.values():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def unpassed_options(sources: dict, callers: dict) -> list:
    """Defaulted parameters of the package's public functions that no call in callers passes."""
    calls = _calls_by_name(callers)
    unpassed = []
    for mod, fn in _public_functions(sources):
        for pos, param in _defaulted(fn):
            if not any(
                any(kw.arg == param for kw in call.keywords) or (pos is not None and len(call.args) > pos)
                for call in calls.get(fn.name, [])
            ):
                unpassed.append(f"{mod}.{fn.name}({param})")
    return sorted(unpassed)


def _read_outside(reads: Counter, fn: ast.FunctionDef) -> bool:
    """Whether the reads of the callers, the def's own module among them, name fn outside its own body."""
    return reads[fn.name] > _reads([fn])[fn.name]


def uncalled_functions(sources: dict, callers: dict) -> list:
    """Public functions of the package that nothing in callers reads, outside their own definition.

    callers holds the package's own modules under the same names as sources.
    """
    reads = _reads(ast.parse(src) for src in callers.values())
    return sorted(f"{mod}.{fn.name}" for mod, fn in _public_functions(sources) if not _read_outside(reads, fn))


def test_detects_an_unpassed_option():
    sources = {"a": "__all__ = ['f', 'g']\ndef f(x, y=1, *, z=2):\n    pass\ndef g(w=0):\n    pass\n_h = 0\n"}
    callers = {"b": "f(1, 2)\nm.g(w=3)\n", "c": "f(0)\n"}
    assert unpassed_options(sources, callers) == ["a.f(z)"]
    assert unpassed_options(sources, {"c": callers["c"]}) == ["a.f(y)", "a.f(z)", "a.g(w)"]


def test_detects_an_uncalled_function():
    sources = {"a": "__all__ = ['f', 'g', 'h']\ndef f():\n    return f()\ndef g():\n    pass\ndef h():\n    return g()\n"}
    assert uncalled_functions(sources, {"a": sources["a"], "b": "import m\nm.h()\n"}) == ["a.f"]


def test_every_public_option_is_passed_outside_the_tests():
    assert [o for o in unpassed_options(_library(), _caller_sources()) if o not in OPTION_EXEMPT] == []


def test_every_public_function_is_called_outside_the_tests():
    assert [f for f in uncalled_functions(_library(), _caller_sources()) if f not in CALLER_EXEMPT] == []


def test_every_exemption_is_still_needed():
    """An exempt option is still unpassed and an exempt function still uncalled, or the exemption goes."""
    assert OPTION_EXEMPT <= set(unpassed_options(_library(), _caller_sources()))
    assert CALLER_EXEMPT <= set(uncalled_functions(_library(), _caller_sources()))


# ------------------------------------------------------------------ public types

def _public_classes(sources: dict) -> list:
    """(module, class def) for every class a module of the package exports through __all__."""
    out = []
    for mod, src in sources.items():
        tree = ast.parse(src)
        exported = _exported(tree)
        out += [(mod, stmt) for stmt in tree.body if isinstance(stmt, ast.ClassDef) and stmt.name in exported]
    return out


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        and any(kw.arg == "frozen" and getattr(kw.value, "value", False) is True for kw in d.keywords)
        for d in cls.decorator_list
    )


def _defaulted_fields(cls: ast.ClassDef) -> list:
    """(position, name) of each field of the dataclass cls that has a default; ClassVars are no fields.

    The positions count the class's own fields: the bases of the package's dataclasses hold none.
    """
    fields = [
        stmt for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and "ClassVar" not in ast.unparse(stmt.annotation)
    ]
    return [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]


def unpassed_fields(sources: dict, callers: dict) -> list:
    """Defaulted fields of the package's exported frozen dataclasses that no call in callers passes.

    A call to the class passes a field by keyword or by position; a call named
    replace (dataclasses.replace) passes each field it names by keyword.
    """
    calls = _calls_by_name(callers)
    replaced = {kw.arg for call in calls.get("replace", []) for kw in call.keywords}
    unpassed = []
    for mod, cls in _public_classes(sources):
        if not _is_frozen_dataclass(cls):
            continue
        for pos, field in _defaulted_fields(cls):
            if field not in replaced and not any(
                any(kw.arg == field for kw in call.keywords) or len(call.args) > pos for call in calls.get(cls.name, [])
            ):
                unpassed.append(f"{mod}.{cls.name}.{field}")
    return sorted(unpassed)


def unread_methods(sources: dict, callers: dict) -> list:
    """Public methods (properties too) of the package's exported classes that nothing in callers reads.

    A method counts as read wherever its name is read, outside its own
    definition: the check matches names, not types, so a method named like a
    function that callers read (``progression``, which ``instances`` exports
    and the benchmark calls) would escape it.
    """
    reads = _reads(ast.parse(src) for src in callers.values())
    return sorted(
        f"{mod}.{cls.name}.{fn.name}"
        for mod, cls in _public_classes(sources)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_") and not _read_outside(reads, fn)
    )


def test_detects_an_unpassed_field():
    sources = {"a": (
        "__all__ = ['C', 'D']\n"
        "@dataclass(frozen=True)\nclass C:\n    k: ClassVar[str] = 'c'\n    x: int\n    y: int = 1\n    z: int = 2\n    w: int = 3\n"
        "@dataclass\nclass D:\n    u: int = 0\n"
    )}
    callers = {"b": "C(1, 2)\nreplace(c, w=4)\n", "c": "C(0)\nm.D()\n"}
    assert unpassed_fields(sources, callers) == ["a.C.z"]
    assert unpassed_fields(sources, {"c": callers["c"]}) == ["a.C.w", "a.C.y", "a.C.z"]


def test_detects_an_unread_method():
    sources = {"a": (
        "__all__ = ['C']\n"
        "class C:\n    def f(self):\n        return self.f()\n    def g(self):\n        return self.h\n"
        "    @property\n    def h(self):\n        pass\n    def _p(self):\n        pass\n"
        "class E:\n    def q(self):\n        pass\n"
    )}
    assert unread_methods(sources, {**sources, "b": "c.g()\n"}) == ["a.C.f"]


def test_every_public_field_is_passed_outside_the_tests():
    assert unpassed_fields(_library(), _caller_sources()) == []


def test_every_public_method_is_read_outside_the_tests():
    assert unread_methods(_library(), _caller_sources()) == []


# ------------------------------------------------------------------ slack literals

def tiny_float_literals(source: str) -> list:
    """(line, value) of each float literal of source with 0 < value < 1e-6; a sign is no part of a literal."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < node.value < 1e-6
    )


def test_detects_a_tiny_float_literal():
    src = "x = 1e-9\ny = 0.5 - 2.5e-7\nz = -3e-12 + 1e-6 + 0.0 + 1\n"
    assert tiny_float_literals(src) == [(1, 1e-9), (2, 2.5e-7), (3, 3e-12)]


def test_the_float_slack_is_the_only_tiny_literal():
    sources = _library()
    found = {mod: lits for mod, src in sources.items() if (lits := tiny_float_literals(src))}
    line = next(i for i, text in enumerate(sources["fourier"].splitlines(), 1) if text.startswith("_FLOAT_SLACK ="))
    assert found == {"fourier": [(line, fourier_mod._FLOAT_SLACK)]}


# ------------------------------------------------------------------ budget refusals

def _owners(tree: ast.Module, hit) -> list:
    """The innermost def around each node of tree that hit(node) accepts, None at module level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.append(owner)
            visit(child, owner)

    visit(tree, None)
    return found


def _raises_budget_error(node) -> bool:
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "BudgetError"


def budget_raisers(source: str) -> list:
    """Names of the functions of source holding `raise BudgetError`; a raise belongs to its innermost def."""
    return sorted({owner for owner in _owners(ast.parse(source), _raises_budget_error) if owner is not None})


def budgets_section(readme: str) -> str:
    """The text of the README's "## Budgets" section, empty if there is none."""
    _, _, rest = readme.partition("\n## Budgets\n")
    return rest.split("\n## ", 1)[0]


def test_detects_a_budget_raiser():
    src = "def f():\n    raise BudgetError('x')\n\ndef g():\n    def h():\n        raise BudgetError\n    raise ValueError\n"
    assert budget_raisers(src) == ["f", "h"]


def test_every_budget_refusal_is_in_the_readme():
    section = budgets_section((ROOT / "README.md").read_text())
    spans = re.findall(r"`([^`]+)`", section)
    missing = [
        f"{mod}.{name}"
        for mod, src in _library().items()
        for name in budget_raisers(src)
        if not any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", span) for span in spans)
    ]
    assert section and missing == []


# ------------------------------------------------------------------ ledger

def certificate_claims(sources: dict) -> list:
    """(class, claim) for every claim of the checks of each Certificate subclass in sources.

    A claim is a constant key of a dict display or of a subscript store in
    checks; a dict merged from self.<field>.checks adds the claims of the
    field's annotated class, and a dict comprehension stands for one claim
    per name, written <check>.
    """
    classes = {
        stmt.name: stmt
        for src in sources.values()
        for stmt in ast.parse(src).body
        if isinstance(stmt, ast.ClassDef) and any(getattr(base, "id", None) == "Certificate" for base in stmt.bases)
    }

    def claims(cls: ast.ClassDef) -> set:
        fields = {s.target.id: ast.unparse(s.annotation) for s in cls.body if isinstance(s, ast.AnnAssign)}
        checks = next(s for s in cls.body if isinstance(s, ast.FunctionDef) and s.name == "checks")
        found = set()
        for node in ast.walk(checks):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant):
                        found.add(key.value)
                    elif key is None and isinstance(value, ast.Attribute) and isinstance(value.value, ast.Attribute):
                        found |= claims(classes[fields[value.value.attr]])
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and isinstance(node.slice, ast.Constant):
                found.add(node.slice.value)
            elif isinstance(node, ast.DictComp):
                found.add("<check>")
        return found

    return sorted((name, claim) for name, cls in classes.items() for claim in claims(cls))


def ledger_rows(readme: str) -> list:
    """(certificate, claim) of each row of the README's "What is verified" table that names both."""
    _, _, rest = readme.partition("\n## What is verified\n")
    return sorted(re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", rest.split("\n## ", 1)[0], flags=re.M))


def test_detects_the_claims_of_a_certificate():
    src = (
        "class R(Certificate):\n    inner: S\n    def checks(self):\n"
        "        c = {'a': 1} if x else {}\n        c['b'] = 2\n        return {**c, **self.inner.checks}\n"
        "class S(Certificate):\n    def checks(self):\n        return {'s': 1}\n"
        "class T(Certificate):\n    def checks(self):\n        return {n: 1 for n in self.names}\n"
        "class U:\n    def checks(self):\n        return {'u': 1}\n"
    )
    assert certificate_claims({"m": src}) == [("R", "a"), ("R", "b"), ("R", "s"), ("S", "s"), ("T", "<check>")]
    assert ledger_rows("x\n## What is verified\n| `R` | `a` | y |\n| (none) | — |\n## Next\n| `S` | `s` |\n") == [("R", "a")]


def test_every_claim_has_a_row_in_the_readme():
    rows = ledger_rows((ROOT / "README.md").read_text())
    assert rows and certificate_claims(_library()) == rows


# ------------------------------------------------------------------ applicability

def _constructs_not_applicable(node) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "NotApplicable" or getattr(node.func, "attr", None) == "NotApplicable"
    )


def group_tests(source: str) -> list:
    """Lines of source that read a .kind attribute or name is_prime."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "kind")
        or (isinstance(node, ast.Name) and node.id == "is_prime")
        or (isinstance(node, ast.alias) and node.name == "is_prime")
    )


def test_detects_a_group_test():
    src = "from .primes import is_prime\n\ndef f(A):\n    if A.group.kind != 'cyclic' or not is_prime(A.group.modulus):\n        return 1\n"
    assert group_tests(src) == [1, 4, 4]


def test_detects_a_not_applicable_construction():
    src = "def f():\n    raise NotApplicable('x')\n\ndef g():\n    return groups.NotApplicable\n\nE = NotApplicable()\n"
    assert _owners(ast.parse(src), _constructs_not_applicable) == ["f", None]


def test_the_suite_leaves_applicability_to_the_library():
    assert group_tests(_library()["suite"]) == []


def test_only_require_refuses_an_ambient_group():
    found = [(mod, owner) for mod, src in _library().items() for owner in _owners(ast.parse(src), _constructs_not_applicable)]
    assert found == [("groups", "_require")] * 2


# ------------------------------------------------------------------ character sums

def _reads_fft(node) -> bool:
    """np.fft, or fft read from any other module name; np.fft.fftn holds one such read."""
    return isinstance(node, ast.Attribute) and node.attr == "fft" and isinstance(node.value, ast.Name)


def _complex_exp(node) -> bool:
    if not (isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "exp"):
        return False
    return any(isinstance(c, ast.Constant) and isinstance(c.value, complex) for arg in node.args for c in ast.walk(arg))


def character_kernels(sources: dict) -> list:
    """(module, owner) of each np.fft read and each complex exponential in sources, in source order; owner as _owners gives it."""
    return [
        (mod, owner)
        for mod, src in sources.items()
        for owner in _owners(ast.parse(src), lambda node: _reads_fft(node) or _complex_exp(node))
    ]


def test_detects_a_character_sum():
    src = (
        "import cmath\nimport numpy as np\n\ndef f(x):\n    return np.fft.fft(x)\n\n"
        "def g(x, n):\n    return np.exp((2j * np.pi / n) * x).sum() + np.exp(x)\n\n"
        "h = lambda t: cmath.exp(1j * t)\n"
    )
    assert character_kernels({"a": src}) == [("a", "f"), ("a", "g"), ("a", None)]


def test_one_place_computes_character_magnitudes():
    assert character_kernels(_library()) == [("fourier", "_fft_magnitudes"), ("fourier", "_unit_roots")]


# ------------------------------------------------------------------ object dtype

def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def object_dtype_reads(source: str) -> list:
    """The owner, as _owners gives it, of each read of the name object in source that is no attribute root or annotation."""
    tree = ast.parse(source)
    skip = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    skip |= {id(node) for ann in _annotations(tree) for node in ast.walk(ann)}
    return _owners(tree, lambda node: isinstance(node, ast.Name) and node.id == "object" and id(node) not in skip)


def test_detects_an_object_dtype_read():
    src = (
        "import numpy as np\n\n"
        "class C:\n    def __new__(cls):\n        return object.__new__(cls)\n\n"
        "    def __eq__(self, other: object) -> object:\n        return np.array([other], dtype=object)\n\n"
        "def f(x):\n    y: object = x\n    return y.astype(object)\n\n"
        "D = object\n"
    )
    assert object_dtype_reads(src) == ["__eq__", "f", None]


def test_object_dtype_only_in_named_places():
    found = [(mod, owner) for mod, src in _library().items() for owner in object_dtype_reads(src)]
    assert found == [
        ("fourier", "_count_chain"),
        ("fourier", "moment_chain"),
        ("groups", "_mul_mod"),
        ("rectify", "freiman_iso_check"),
    ]


# ------------------------------------------------------------------ multisets

def _names_multisets(node) -> bool:
    """A read or an import of combinations_with_replacement, under that name."""
    name = "combinations_with_replacement"
    return (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    )


def multiset_enumerations(sources: dict) -> list:
    """(module, owner) of each read or import of combinations_with_replacement in sources; owner as _owners gives it."""
    return [(mod, owner) for mod, src in sources.items() for owner in _owners(ast.parse(src), _names_multisets)]


def test_detects_a_multiset_enumeration():
    src = (
        "import itertools\nfrom itertools import combinations_with_replacement as cwr\n\n"
        "def f(s, k):\n    return list(itertools.combinations_with_replacement(range(s), k))\n\n"
        "def g(s):\n    \"\"\"combinations_with_replacement order\"\"\"\n    return cwr(range(s), 2)\n"
    )
    assert multiset_enumerations({"a": src}) == [("a", None), ("a", "f")]


def test_one_place_enumerates_multisets():
    assert multiset_enumerations(_library()) == [("rectify", "_multiset_table")]


# ------------------------------------------------------------------ verdicts and exit codes

def _own_returns(fn: ast.FunctionDef) -> list:
    """The return statements of fn itself; those of a nested def are its own."""
    found, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return):
            found.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def _assigned(tree: ast.Module, name: str):
    """The value bound to name at module level, by a plain or an annotated assignment."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.value
    return None


def _registered_checks(source: str) -> dict:
    """The module-level defs registered in INSTANCE_CHECKS of source, by name."""
    tree = ast.parse(source)
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    return {v.id: defs[v.id] for v in _assigned(tree, "INSTANCE_CHECKS").values}


def checks_without_a_verdict(source: str) -> list:
    """The functions registered in INSTANCE_CHECKS of source with no return, or one that is not a _verdict(...) call."""
    return sorted(
        name
        for name, fn in _registered_checks(source).items()
        if not (returns := _own_returns(fn))
        or not all(isinstance(r.value, ast.Call) and getattr(r.value.func, "id", None) == "_verdict" for r in returns)
    )


def checks_not_on_the_instance_alone(source: str) -> list:
    """The functions registered in INSTANCE_CHECKS of source that take anything but one parameter."""
    def params(fn: ast.FunctionDef) -> int:
        a = fn.args
        return len(a.posonlyargs + a.args + a.kwonlyargs) + (a.vararg is not None) + (a.kwarg is not None)

    return sorted(name for name, fn in _registered_checks(source).items() if params(fn) != 1)


def _int_literal(node) -> bool:
    """An int literal (a bool is none), or a conditional expression between two."""
    if isinstance(node, ast.IfExp):
        return _int_literal(node.body) and _int_literal(node.orelse)
    return isinstance(node, ast.Constant) and type(node.value) is int


def exit_code_functions(source: str) -> list:
    """The functions of source, nested ones too, annotated to return int or returning an int literal."""
    return sorted(
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (
            (fn.returns is not None and ast.unparse(fn.returns) == "int")
            or any(r.value is not None and _int_literal(r.value) for r in _own_returns(fn))
        )
    )


def test_detects_a_check_without_a_verdict():
    src = (
        "def _a(A):\n    def one(d):\n        return {}, f(d)\n    return _verdict(map(one, G), str)\n\n"
        "def _b(A):\n    g(A)\n    return PASS, None\n\n"
        "def _c(A):\n    if A:\n        return _verdict([], str)\n    return suite._verdict([], str)\n\n"
        "def _d(A):\n    g(A)\n\n"
        "INSTANCE_CHECKS: Dict[str, Callable] = {'a': _a, 'b': _b, 'c': _c, 'd': _d}\n"
    )
    assert checks_without_a_verdict(src) == ["_b", "_c", "_d"]


def test_every_suite_check_returns_a_verdict():
    suite = _library()["suite"]
    assert len(_assigned(ast.parse(suite), "INSTANCE_CHECKS").values) == 11
    assert checks_without_a_verdict(suite) == []


# ------------------------------------------------------------------ one witness budget

def test_detects_a_check_with_a_config():
    src = (
        "def _a(A):\n    return _verdict([], str)\n\n"
        "def _b(A, cfg):\n    return _verdict([], str)\n\n"
        "def _c(A, *, budget=12):\n    return _verdict([], str)\n\n"
        "def _d(*args):\n    return _verdict([], str)\n\n"
        "INSTANCE_CHECKS = {'a': _a, 'b': _b, 'c': _c, 'd': _d}\n"
    )
    assert checks_not_on_the_instance_alone(src) == ["_b", "_c"]


def test_every_suite_check_takes_the_instance_alone():
    assert checks_not_on_the_instance_alone(_library()["suite"]) == []


def test_the_suite_config_holds_no_budget():
    tree = ast.parse(_library()["suite"])
    config = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "SuiteConfig")
    fields = [stmt.target.id for stmt in config.body if isinstance(stmt, ast.AnnAssign)]
    assert fields == ["checks", "seed", "include_timing"]


def test_no_command_defines_a_budget():
    parser = cli_mod._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {"cover", "torsion-cover", "verify"} <= set(commands)
    assert [name for name, sub in commands.items() if "--budget" in sub._option_string_actions] == []


def test_detects_an_exit_code():
    src = (
        "def main(argv=None) -> int:\n    return 0\n\n"
        "def _cmd_a(args):\n    return rep, 'text'\n\n"
        "def _cmd_b(args):\n    return 1 if bad else 0\n\n"
        "def _cmd_c(args) -> int:\n    return _exit_code(rep)\n\n"
        "def _cmd_d(args):\n    def inner():\n        return 2\n    return inner\n\n"
        "def _cmd_e(args):\n    return True\n"
    )
    assert exit_code_functions(src) == ["_cmd_b", "_cmd_c", "inner", "main"]


def test_only_main_returns_an_exit_code():
    assert exit_code_functions(_library()["cli"]) == ["main"]
