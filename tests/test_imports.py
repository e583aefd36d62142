"""Lint over the package sources, using only the standard library: every
module-level import is used (in the tests too), no function or class imports
locally, an Overflow is caught only where the allowlist below says, a
diagonal (x,) * n is written only in ``core.exp_series``, which only the BV
e^a calls, no scalar is formed by true division or by a power of
-1, only ``core`` touches a Vector's coefficient dict (the attribute ``.c``),
every option has a setter: each defaulted parameter of a library function is
passed by some call in ``src/``, ``tests/`` or ``perfbench/`` (an option no call sets
is a constant, written as one; a call ``X.m(...)`` through a library class X
sets only the options of the ``m`` that X defines or inherits), every option
has a library setter: a call in ``src/`` or ``perfbench/`` sets it, unless an
allowlist gives the one-line reason a test-only option stays, every
parameter is read: the body of each module-level function and method reads
each of its parameters but a method's ``self`` or ``cls``, no nested
function that calls itself outlives its enclosing call as a reference cycle,
unless an allowlist gives the one-line reason it stays, no library function
reads a ``functools`` cache (``lru_cache``, ``cache``, ``cached_property``),
every dataclass field is read: some expression in ``src/``, ``tests/`` or
``perfbench/`` loads an attribute of its name, every function has a library
caller: each module-level function and method is referenced in ``src/`` or
``perfbench/`` outside its own body, unless an allowlist gives the one-line
reason only tests reach it, no accumulator
starts from the shared, read-only ``Vector.zero()`` (no ``add_scaled`` on a
name bound to it) or from a cached image (a name bound to an ``on_key`` or
``component`` call), and no certificate
compares an operator with a freshly built ``LinOp.zero`` or
``LinOp.identity`` through ``first_difference``, every script that
``pyproject.toml`` declares names a module that imports and has the named
attribute, and ``core.CommAlgebra.mul`` is the one vector product: no other
library class defines ``mul`` or ``product``, and each one that defines
``mul_keys`` is a ``CommAlgebra``, and ``LinOp`` is the one operator algebra:
``tseries.TOp`` defines no arithmetic, so two t-series meet only as
``LinOp``s on the flattened spaces (``tseries.flatten_top``), and
``symcoalg.tensor_coproduct`` is the one tensor coproduct: a library call of
``coproduct`` or of the split generator ``_word_unshuffles`` sits only where
an allowlist gives the reason, ``tseries.flatness_claims`` is the one structure
square, and ``tseries.intertwining_claims`` is the one intertwining defect: no
other library function puts one operand on the left of one ``@`` and on the
right of another, unless an allowlist gives the reason, and ``symcoalg.words_over`` is
the one multiset enumerator: no other library function calls
``combinations_with_replacement``."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gradedhpt"
MODULES = sorted(SRC.glob("*.py"))
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_local_imports(path):
    tree = _tree(path)
    top = {id(node) for node in tree.body}
    local = sorted(n.lineno for n in ast.walk(tree)
                   if isinstance(n, (ast.Import, ast.ImportFrom)) and id(n) not in top)
    assert not local, f"{path.name}: imports inside functions or classes at lines {local}"


# The functions that may catch an Overflow: the scope rule's scan, the t-adic
# perturbation lemma (whose exactness test must not leave the word bound), the
# IBL Maurer-Cartan samples, which count an undetermined sample, the
# Maurer-Cartan correspondence, whose claims on a point beyond the bounds are
# UNDETERMINED, and the cache of Taylor data, which keeps a refusal and raises
# it again.  Every other checker decides its scope through ``report.scan``.
OVERFLOW_CATCHERS = {"report.scan", "tseries.spl_t", "ibl.ibl_mc_check",
                     "mc.correspondence_claims", "symcoalg._TaylorData.component"}


def _catches_overflow(handler: ast.ExceptHandler) -> bool:
    """Whether the handler catches Overflow: it names it, or it is bare or broad."""
    if handler.type is None:
        return True
    names = {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(handler.type) if isinstance(n, ast.Attribute)}
    return bool(names & {"Overflow", "Exception", "BaseException"})


def owned_nodes(path: Path) -> list:
    """(owner, node) for every node of a module; the owner is the module-level
    function or method the node sits in, nested functions included, else the
    module."""
    def walk(node, owner, in_function):
        for child in ast.iter_child_nodes(node):
            yield owner, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not in_function:
                yield from walk(child, f"{owner}.{child.name}",
                                not isinstance(child, ast.ClassDef))
            else:
                yield from walk(child, owner, in_function)

    return list(walk(_tree(path), path.stem, False))


def overflow_handlers(path: Path) -> list:
    """(owner, line) of each handler that catches Overflow."""
    return [(owner, node.lineno) for owner, node in owned_nodes(path)
            if isinstance(node, ast.ExceptHandler) and _catches_overflow(node)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_overflow_caught_only_on_the_allowlist(path):
    stray = [(owner, line) for owner, line in overflow_handlers(path)
             if owner not in OVERFLOW_CATCHERS]
    assert not stray, f"{path.name}: Overflow caught outside the scope rule at {stray}"


# A sum over the diagonal, sum_n phi((x,) * n)/n!, is written in this one
# function.  The Maurer-Cartan sums of structures (Koszul brackets) and their
# push-forwards (cumulants) form no diagonal: ``mc.mc_sum`` evaluates the
# polynomial ``_TaylorData.diagonal_polynomial`` forms on canonical words.
DIAGONAL_SUMS = {"core.exp_series"}


def diagonal_sites(path: Path) -> list:
    """(owner, line) of each one-element tuple multiplied by a name that its
    owner binds as a loop variable (a ``for`` or comprehension target)."""
    nodes = owned_nodes(path)
    loop_vars: dict = {}
    for owner, node in nodes:
        if isinstance(node, (ast.For, ast.comprehension)):
            loop_vars.setdefault(owner, set()).update(
                n.id for n in ast.walk(node.target) if isinstance(n, ast.Name))

    def diagonal(owner, node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
            isinstance(a, ast.Tuple) and len(a.elts) == 1 and isinstance(b, ast.Name)
            and b.id in loop_vars.get(owner, ())
            for a, b in ((node.left, node.right), (node.right, node.left)))

    return [(owner, node.lineno) for owner, node in nodes if diagonal(owner, node)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_diagonal_sums_only_in_exp_series(path):
    stray = [(owner, line) for owner, line in diagonal_sites(path)
             if owner not in DIAGONAL_SUMS]
    assert not stray, f"{path.name}: a diagonal (x,) * n outside core.exp_series at {stray}"


# ``core.exp_series`` has one caller, ``bv._exp``: the e^a of the BV exponential
# route, and the only allowlist entry.  The Maurer-Cartan sums of Taylor data,
# the Kuranishi corrections among them, are ``mc.mc_sum``, which reads each
# canonical word of the diagonal once and calls no ``exp_series``; a sum of
# Koszul brackets or cumulants is ``mc.mc_sum`` of their lift, never
# ``exp_series`` over a recursion, which visits every ordered key tuple.
EXP_SERIES_CALLERS = {"bv._exp"}


def exp_series_calls(path: Path) -> list:
    """(owner, line) of each call of ``exp_series``, by name or as an attribute."""
    return [(owner, node.lineno) for owner, node in owned_nodes(path)
            if isinstance(node, ast.Call) and "exp_series" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exp_series_only_in_the_bv_exponential(path):
    stray = [(owner, line) for owner, line in exp_series_calls(path)
             if owner not in EXP_SERIES_CALLERS]
    assert not stray, f"{path.name}: exp_series called outside {sorted(EXP_SERIES_CALLERS)} at {stray}"


# Scalars are exact and int-first (``core.Q``): ``/`` on ints makes a float, and
# so does (-1) ** e for a negative e, as a degree can be.  ``Q(p, q)`` is the
# only way to divide, and a sign is a parity, ``-1 if e % 2 else 1``.


def _minus_one(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
        return isinstance(node, ast.Constant) and node.value == 1
    return isinstance(node, ast.Constant) and node.value == -1


def float_scalar_sites(path: Path) -> list:
    """(owner, line, operator) of each true division and each power of -1."""
    sites = []
    for owner, node in owned_nodes(path):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((owner, node.lineno, "/"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and _minus_one(node.left):
            sites.append((owner, node.lineno, "(-1) **"))
    return sites


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_true_division_or_sign_powers(path):
    sites = float_scalar_sites(path)
    assert not sites, f"{path.name}: use Q(p, q) to divide and a parity for a sign at {sites}"


# Coefficients are summed in two places, both in ``core.Vector``: ``Vector(terms)``
# for (key, scalar) terms and ``Vector.add_scaled`` for a vector.  Every other
# module reads a vector through ``items()`` and ``keys()``.


def coefficient_sites(path: Path) -> list:
    """(owner, line) of each attribute access ``.c``."""
    return [(owner, node.lineno) for owner, node in owned_nodes(path)
            if isinstance(node, ast.Attribute) and node.attr == "c"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_coefficients_only_in_core(path):
    sites = coefficient_sites(path)
    assert not sites, f"{path.name}: a coefficient dict touched outside core at {sites}"


# Every option has a setter.  The scope is every defaulted parameter of every
# function or method in the library, nested functions and class ``__init__``s
# included, except the input modules ``fixtures.py`` and ``randgen.py``, whose
# size parameters are what the tests and the benchmark vary.  A call sets a
# parameter when its callee name (the ``Name`` id or the ``Attribute`` attr; the
# class name for ``__init__``) matches and it passes the parameter by keyword,
# passes at least as many positional arguments as reach it, or uses ``*`` or
# ``**``.  A call ``X.m(...)`` whose X names a library class reaches only the
# ``m`` of X or of a library class X inherits from, so it sets no option of
# another class's ``m`` of the same name; a call through an instance may reach
# any of them.

ROOT = SRC.parents[1]
INPUT_MODULES = {"fixtures.py", "randgen.py"}


def options(path: Path) -> list:
    """(class, callee name, parameter, positional index or None) of each
    defaulted parameter; the class is None outside a class body, the index
    does not count ``self`` or ``cls``, and is None for a keyword-only
    parameter."""
    out = []

    def function(fn, cls):
        args = fn.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        bound = cls is not None and not static
        name = cls if cls is not None and fn.name == "__init__" else fn.name
        first = len(positional) - len(args.defaults)
        out.extend((cls, name, p.arg, i - bound) for i, p in enumerate(positional[first:], first))
        out.extend((cls, name, p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None)
        visit(fn)

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for item in child.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        function(item, child.name)
                    else:
                        visit(item)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(child, None)
            else:
                visit(child)

    visit(_tree(path))
    return out


def python_files(*dirs) -> list:
    return [path for d in dirs for path in sorted((ROOT / d).rglob("*.py"))]


def calls_by_name(files) -> dict:
    """Every call in the given files, by callee name."""
    out: dict = {}
    for path in files:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def library_classes() -> dict:
    """Each library class by name, with the names of its library base classes."""
    classes = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
               for path in MODULES for node in ast.walk(_tree(path)) if isinstance(node, ast.ClassDef)}
    return {name: [b for b in bases if b in classes] for name, bases in classes.items()}


def reached_classes(call: ast.Call, classes: dict):
    """The library classes whose methods a call ``X.m(...)`` can reach, X and
    its library ancestors, when X names a library class; None for any other
    call."""
    f = call.func
    if not (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
            and f.value.id in classes):
        return None
    reached, todo = set(), [f.value.id]
    while todo:
        cls = todo.pop()
        if cls not in reached:
            reached.add(cls)
            todo.extend(classes[cls])
    return reached


def sets(call: ast.Call, param: str, index) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def options_without_setter(paths, files) -> list:
    """(module, callee name, parameter) of each option that no call in
    ``files`` sets."""
    calls = calls_by_name(files)
    classes = library_classes()

    def reaches(call, cls) -> bool:
        reached = reached_classes(call, classes)
        return reached is None or cls in reached

    return [(path.stem, name, param) for path in paths
            for cls, name, param, index in options(path)
            if not any(sets(call, param, index) and reaches(call, cls)
                       for call in calls.get(name, ()))]


LIBRARY_MODULES = [p for p in MODULES if p.name not in INPUT_MODULES]


def test_every_option_has_a_setter():
    unset = options_without_setter(LIBRARY_MODULES, python_files("src", "tests", "perfbench"))
    assert not unset, f"options no call sets (make them constants): {unset}"


# The options that only tests set, each with the reason it stays.  Every other
# option has a setter in the library or the benchmark.
TEST_ONLY_OPTIONS = {
    ("bv", "verify_poisson", "keys"): "key corpus; the default is the whole basis",
    ("bv", "bv_transfer", "keys_A"): "key corpus; the default is the whole basis",
    ("bv", "bv_transfer", "keys_B"): "key corpus; the default is the whole basis",
    ("commalg", "diff_order", "keys"): "key corpus; the default is the generators",
    ("hpt", "semifull_failure_identities", "keys_A"): "key corpus; the default is the whole basis",
    ("hpt", "check_semifull_coalgebra", "keys_C"): "key corpus; the default is the whole basis",
    ("hpt", "check_semifull_coalgebra", "keys_D"): "key corpus; the default is the whole basis",
    ("bv", "bv_mc_check", "nilpotency"): "the input's nilpotency order; set, it adds the e^a cross-check",
}


def test_every_option_has_a_library_setter():
    unset = options_without_setter(LIBRARY_MODULES, python_files("src", "perfbench"))
    stray = [site for site in unset if site not in TEST_ONLY_OPTIONS]
    assert not stray, f"options only tests set (make them constants): {stray}"
    stale = sorted(set(TEST_ONLY_OPTIONS) - set(unset))
    assert not stale, f"allowlisted options that now have a library setter: {stale}"


# Every parameter is read.  The scope is every module-level function and every
# method; a nested function is a component whose signature its caller fixes,
# and a body that only raises ``NotImplementedError`` is an interface.


def _only_raises_not_implemented(fn) -> bool:
    body = [node for node in fn.body if not (isinstance(node, ast.Expr)
                                             and isinstance(node.value, ast.Constant))]
    return len(body) == 1 and isinstance(body[0], ast.Raise) and any(
        isinstance(n, ast.Name) and n.id == "NotImplementedError" for n in ast.walk(body[0]))


def unread_parameters(path: Path) -> list:
    """(owner, parameter) of each parameter its function's body never reads."""
    out = []

    def check(fn, owner, method):
        if _only_raises_not_implemented(fn):
            return
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        if method and not static:
            params = params[1:]
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend((owner + fn.name, p.arg) for p in params if p.arg not in read)

    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            check(node, f"{path.stem}.", False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    check(item, f"{path.stem}.{node.name}.", True)
    return out


def test_every_parameter_is_read():
    unread = [site for path in MODULES for site in unread_parameters(path)]
    assert not unread, f"parameters no body reads (drop them): {unread}"


# A nested function that calls itself by name holds itself through its closure
# cell, so each call of the enclosing function leaves a reference cycle (the
# function, its closure and whatever that holds) for the cyclic garbage
# collector.  The enclosing function deletes it in a ``finally``, which empties
# the cell, or the code is written without the self-call.  The allowlist gives
# the reason a cycle stays.
RECURSIVE_CLOSURES = {
    "hpt._transfer_recursions.g_component": "the returned TaylorMorphism keeps it",
    "symcoalg.cocumulant_tilde.kt": "the returned callable keeps it",
    "symcoalg.koszul_cobracket_tilde.kt": "the returned callable keeps it",
}


def _deletes_in_finally(fn, name: str) -> bool:
    return any(isinstance(target, ast.Name) and target.id == name
               for node in ast.walk(fn) if isinstance(node, ast.Try)
               for stmt in node.finalbody for d in ast.walk(stmt) if isinstance(d, ast.Delete)
               for target in d.targets)


def recursive_closures(path: Path) -> list:
    """(qualified name, freed) of each nested function that calls itself by
    name; freed says whether its enclosing function deletes it in a
    ``finally``."""
    out = []

    def visit(node, qual, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qual}.{child.name}"
                function = not isinstance(child, ast.ClassDef)
                if function and enclosing is not None and any(
                        isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                        and n.func.id == child.name for n in ast.walk(child)):
                    out.append((name, _deletes_in_finally(enclosing, child.name)))
                visit(child, name, child if function else None)
            else:
                visit(child, qual, enclosing)

    visit(_tree(path), path.stem, None)
    return out


def test_recursive_closures_are_freed():
    kept = [name for path in MODULES for name, freed in recursive_closures(path) if not freed]
    stray = [name for name in kept if name not in RECURSIVE_CLOSURES]
    assert not stray, f"self-calling nested functions left as reference cycles: {stray}"
    stale = sorted(set(RECURSIVE_CLOSURES) - set(kept))
    assert not stale, f"allowlisted reference cycles that are gone: {stale}"


# No table outlives its call: a ``functools`` cache keeps every argument and
# result for the life of the process.  Each function that reads ``lru_cache``,
# ``cache`` or ``cached_property`` of ``functools`` (as a decorator or in a
# call), by a name it imported or as an attribute of the module, is flagged.
FUNCTOOLS_CACHES = {"lru_cache", "cache", "cached_property"}


def functools_cache_sites(path: Path) -> list:
    """The owners (module-level function or method, decorators included) that
    read a ``functools`` cache."""
    tree = _tree(path)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in FUNCTOOLS_CACHES}
    modules = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    return sorted({owner for owner, node in owned_nodes(path)
                   if isinstance(node, ast.Name) and node.id in names
                   or isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES
                   and isinstance(node.value, ast.Name) and node.value.id in modules})


def test_no_functools_cache_in_library():
    sites = [site for path in LIBRARY_MODULES for site in functools_cache_sites(path)]
    assert not sites, f"functools caches outlive their calls (drop them): {sites}"


# Every dataclass field is read.  The scope is each annotated field of each
# ``@dataclass`` class of the package; a field is read when some expression in
# ``src/``, ``tests/`` or ``perfbench/`` loads an attribute of its name.  A field
# nothing reads is data that every constructor fills for no one.


def dataclass_fields(path: Path) -> list:
    """(class, field) of each annotated field of each ``@dataclass`` class."""
    def is_dataclass(decorator) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(target, ast.Name) and target.id == "dataclass"

    return [(f"{path.stem}.{node.name}", item.target.id) for node in ast.walk(_tree(path))
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def test_every_dataclass_field_is_read():
    read = {node.attr for path in python_files("src", "tests", "perfbench")
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls}.{name}" for path in MODULES for cls, name in dataclass_fields(path)
              if name not in read]
    assert not unread, f"dataclass fields nothing reads (drop them): {unread}"


# Every function has a library caller.  The scope is each module-level function
# and each method but a dunder of the library modules (all but the input
# modules).  A function is referenced when its name is a ``Name`` id or an
# ``Attribute`` attr somewhere in ``src/`` or ``perfbench/`` outside the lines
# of its own definition; a call through an instance counts for every method of
# that name.  The allowlist gives the reason a function only tests reach stays.
TEST_ONLY_FUNCTIONS = {
    "bv.verify_poisson": "public checker; a command-line check will run it",
    "bv.bv_transfer": "public checker; a command-line check will run it",
    "bv.cobv_transfer": "public checker; a command-line check will run it",
    "bv.cl_bijection": "public checker; a command-line check will run it",
    "bv.bv_kuranishi_report": "public checker; a command-line check will run it",
    "ibl.ibl_kuranishi_report": "public checker; a command-line check will run it",
    "commalg.diff_order": "public checker; a command-line check will run it",
    "commalg.cumulants": "route-agreement entry point: every cumulant route, compared",
    "commalg.koszul_brackets": "route-agreement entry point: every Koszul-bracket route, compared",
    "report.Report.exit_status": "the exit code of the command-line entry point",
    "report.Report.to_text": "the text output of the command-line entry point",
    "report.Report.to_json": "the machine output of the command-line entry point",
    "ibl.extract_p_components": "the paper's p_{i,j,g} components of an IBL structure",
    "ibl.reassemble_defect": "the paper's reassembly of delta from its components",
    "ibl.degree_audit": "the paper's degrees of the components",
    "hpt.semifull_failure_identities": "the paper's defect identities of a semifull contraction",
    "bv.bv_leading_term_identity": "the paper's leading term of the Maurer-Cartan residual",
    "symcoalg.TaylorMorphism.compose": "composition of infinity-morphisms through their Taylor data",
    "symcoalg.cocumulants_cofree": "the paper's cocumulants, dual to cumulants",
    "symcoalg.koszul_cobrackets_cofree": "the paper's Koszul cobrackets, dual to Koszul brackets",
    "bv.algebra_dual_coalgebra": "the dual coalgebra, inverse of coalgebra_dual_algebra",
    "core.LinOp.identity": "the identity of the operator algebra, a constructor the tests build maps from",
}


def library_functions(path: Path) -> list:
    """(qualified name, definition) of each module-level function and each
    method but a dunder."""
    out = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((f"{path.stem}.{node.name}", node))
        elif isinstance(node, ast.ClassDef):
            out.extend((f"{path.stem}.{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not (item.name.startswith("__") and item.name.endswith("__")))
    return out


def name_references(files) -> dict:
    """(path, line) of each ``Name`` id and ``Attribute`` attr, by name."""
    out: dict = {}
    for path in files:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append((path, node.lineno))
    return out


def functions_without_library_caller() -> list:
    refs = name_references(python_files("src", "perfbench"))
    return [qual for path in LIBRARY_MODULES for qual, fn in library_functions(path)
            if not any(where != path or not fn.lineno <= line <= fn.end_lineno
                       for where, line in refs.get(fn.name, ()))]


def test_every_function_has_a_library_caller():
    uncalled = functions_without_library_caller()
    stray = [name for name in uncalled if name not in TEST_ONLY_FUNCTIONS]
    assert not stray, f"functions only tests reach (cut them or give a library caller): {stray}"
    stale = sorted(set(TEST_ONLY_FUNCTIONS) - set(uncalled))
    assert not stale, f"allowlisted functions that now have a library caller or are gone: {stale}"


# ``Vector.zero()`` is one shared, read-only vector.  An accumulator starts from
# ``Vector()``: a name bound to ``Vector.zero()`` is never the target of an
# ``add_scaled``.


def shared_zero_accumulators(path: Path) -> list:
    """(owner, line) of each ``name.add_scaled(...)`` call whose name the same
    function binds to ``Vector.zero()``."""
    def is_zero_call(node) -> bool:
        f = node.func if isinstance(node, ast.Call) else None
        return (isinstance(f, ast.Attribute) and f.attr == "zero"
                and isinstance(f.value, ast.Name) and f.value.id == "Vector")

    nodes = owned_nodes(path)
    zero_names = {(owner, t.id) for owner, node in nodes
                  if isinstance(node, ast.Assign) and is_zero_call(node.value)
                  for t in node.targets if isinstance(t, ast.Name)}
    return [(owner, node.lineno) for owner, node in nodes
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_scaled" and isinstance(node.func.value, ast.Name)
            and (owner, node.func.value.id) in zero_names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_accumulation_into_the_shared_zero(path):
    sites = shared_zero_accumulators(path)
    assert not sites, f"{path.name}: start an accumulator from Vector(), not Vector.zero(), at {sites}"


# A cached image is shared: a LinOp sum holds a summand's image itself where the
# other is zero, so a write into it would change two caches at once.  A name
# bound to an ``on_key(...)`` or ``component(...)`` call is never the target of
# an ``add_scaled``.
CACHED_IMAGE_READS = {"on_key", "component"}


def cached_image_accumulators(path: Path) -> list:
    """(owner, line) of each ``name.add_scaled(...)`` call whose name the same
    function binds to a ``.on_key(...)`` or ``.component(...)`` call."""
    def is_image_read(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in CACHED_IMAGE_READS)

    nodes = owned_nodes(path)
    image_names = {(owner, t.id) for owner, node in nodes
                   if isinstance(node, ast.Assign) and is_image_read(node.value)
                   for t in node.targets if isinstance(t, ast.Name)}
    return [(owner, node.lineno) for owner, node in nodes
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_scaled" and isinstance(node.func.value, ast.Name)
            and (owner, node.func.value.id) in image_names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_accumulation_into_a_cached_image(path):
    sites = cached_image_accumulators(path)
    assert not sites, f"{path.name}: accumulate into a Vector() of your own, not a cached image, at {sites}"


# A certificate evaluates its identity key by key on the images of the maps it
# certifies.  A zero or identity operator built only to be compared caches an
# empty or a basis vector for every key it is compared on, read once.


def fresh_comparison_sites(path: Path) -> list:
    """(owner, line) of each ``first_difference`` call whose receiver or an
    argument is a call ``LinOp.zero(...)`` or ``LinOp.identity(...)``."""
    def fresh(node) -> bool:
        f = node.func if isinstance(node, ast.Call) else None
        return (isinstance(f, ast.Attribute) and f.attr in ("zero", "identity")
                and isinstance(f.value, ast.Name) and f.value.id == "LinOp")

    return [(owner, node.lineno) for owner, node in owned_nodes(path)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "first_difference"
            and any(fresh(a) for a in (node.func.value, *node.args,
                                       *(k.value for k in node.keywords)))]


@pytest.mark.parametrize("path", LIBRARY_MODULES, ids=lambda p: p.name)
def test_no_comparison_with_a_fresh_zero_or_identity(path):
    sites = fresh_comparison_sites(path)
    assert not sites, f"{path.name}: compare with a defect key by key, not a built operator, at {sites}"


# One vector product.  ``core.CommAlgebra.mul`` is the one product of two
# vectors: no other library class defines a member named ``mul`` or
# ``product``, and every library class with a key-level product ``mul_keys``
# has ``CommAlgebra`` among its library ancestors, so it inherits that ``mul``.
VECTOR_PRODUCTS = {"mul", "product"}


def class_members(path: Path) -> list:
    """(class, member names) of each class of a module: its methods and the
    names its body assigns."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ClassDef):
            names = {item.name for item in node.body
                     if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
            names |= {t.id for item in node.body if isinstance(item, (ast.Assign, ast.AnnAssign))
                      for t in (item.targets if isinstance(item, ast.Assign) else [item.target])
                      if isinstance(t, ast.Name)}
            out.append((node.name, names))
    return out


def test_one_vector_product():
    classes = library_classes()

    def ancestors(name) -> set:
        found, todo = set(), list(classes[name])
        while todo:
            cls = todo.pop()
            if cls not in found:
                found.add(cls)
                todo.extend(classes[cls])
        return found

    members = [(f"{path.stem}.{cls}", cls, names) for path in MODULES
               for cls, names in class_members(path)]
    products = [(qual, sorted(names & VECTOR_PRODUCTS)) for qual, _, names in members
                if names & VECTOR_PRODUCTS and qual != "core.CommAlgebra"]
    assert not products, f"vector products outside core.CommAlgebra.mul: {products}"
    strays = [qual for qual, cls, names in members
              if "mul_keys" in names and qual != "core.CommAlgebra"
              and "CommAlgebra" not in ancestors(cls)]
    assert not strays, f"key-level products outside the CommAlgebra interface: {strays}"


# One operator algebra.  ``tseries.TOp`` only stores coefficients: a composite
# of t-series (a square, an intertwining defect, a difference) is ``LinOp``
# algebra on the flattened spaces, taken at ``tseries.known_order``, so TOp
# defines no operator, reflected or in place, and no scale or bracket.
SERIES_ARITHMETIC = {"__add__", "__radd__", "__iadd__", "__sub__", "__rsub__", "__isub__",
                     "__mul__", "__rmul__", "__imul__", "__matmul__", "__rmatmul__",
                     "__imatmul__", "__neg__", "__truediv__", "scale", "bracket"}


def test_one_operator_algebra():
    members = dict(class_members(SRC / "tseries.py"))
    arithmetic = sorted(members["TOp"] & SERIES_ARITHMETIC)
    assert not arithmetic, f"t-series arithmetic outside LinOp (flatten first): {arithmetic}"


# Every script that ``pyproject.toml`` declares resolves: an installed command
# whose module or attribute is missing fails the moment it is run.  ``tomllib``
# is in the standard library from Python 3.11 on.


def test_every_declared_script_resolves():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    broken = []
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        try:
            found = hasattr(importlib.import_module(module), attr)
        except ImportError:
            found = False
        if not found:
            broken.append((name, target))
    assert not broken, f"declared scripts that do not resolve: {broken}"


# One tensor coproduct.  (F (x) G) o Delta with its Koszul sign is formed in
# ``symcoalg.tensor_coproduct``: convolution and the coderivation bracket read
# it, as the coalgebra checks do.  A library call ``.coproduct(...)`` sits only
# where a coproduct is defined or read as a table, and the one-arity split
# generator ``_word_unshuffles`` only where a whole coproduct would cost 2^n
# splits per word for one arity's worth of terms.
COPRODUCT_CALLERS = {
    "symcoalg.tensor_coproduct": "the one (left (x) right) o Delta",
    "symcoalg.SymSpace.reduced_coproduct": "the reduced coproduct filters the coproduct",
    "symcoalg.FiniteCoalgebra.reduced_coproduct": "the reduced coproduct corrects the table",
    "symcoalg.FiniteCoalgebra.verify": "the coalgebra axioms are checked on the table",
    "bv.coalgebra_dual_algebra": "the dual's structure constants are the coproduct table",
}
WORD_UNSHUFFLES_CALLERS = {
    "symcoalg.SymSpace.coproduct": "the unshuffle coproduct is every arity's splits",
    "symcoalg.TaylorCoderivation.apply_word": "one arity at a time, zero coefficients skipped",
    "symcoalg.hat_extension": "a one-block extension reads one arity only",
}


def call_sites(path: Path, name: str) -> list:
    """(owner, line) of each call of ``name``, as a function or as a method."""
    def called(f) -> bool:
        return (isinstance(f, ast.Name) and f.id == name) or (
            isinstance(f, ast.Attribute) and f.attr == name)

    return [(owner, node.lineno) for owner, node in owned_nodes(path)
            if isinstance(node, ast.Call) and called(node.func)]


def test_one_tensor_coproduct():
    allowlists = {"coproduct": COPRODUCT_CALLERS, "_word_unshuffles": WORD_UNSHUFFLES_CALLERS}
    sites = [(name, site) for name in allowlists
             for path in MODULES for site in call_sites(path, name)]
    stray = [(name, site) for name, site in sites if site[0] not in allowlists[name]]
    assert not stray, f"split loops outside tensor_coproduct (read it instead): {stray}"
    callers = {(name, owner) for name, (owner, _) in sites}
    stale = sorted((name, owner) for name, allowed in allowlists.items() for owner in allowed
                   if (name, owner) not in callers)
    assert not stale, f"allowlisted callers that no longer call: {stale}"


# One multiset enumerator.  Multisets of keys are the canonical words of
# ``symcoalg.words_over``, which leaves out those that repeat an odd key, and a
# scan over the multisets of a key corpus reads them through
# ``symcoalg.multisets_by_weight``, each at the level of its total weight.  A
# library call of ``combinations_with_replacement`` anywhere else is a second
# enumerator, with an odd-repeat rule and a scope of its own.
MULTISET_ENUMERATORS = {
    "symcoalg.words_over": "the one multiset enumerator",
}


def test_one_multiset_enumerator():
    sites = [site for path in MODULES
             for site in call_sites(path, "combinations_with_replacement")]
    stray = [site for site in sites if site[0] not in MULTISET_ENUMERATORS]
    assert not stray, f"multisets enumerated outside words_over (read it instead): {stray}"
    stale = sorted(set(MULTISET_ENUMERATORS) - {owner for owner, _ in sites})
    assert not stale, f"allowlisted enumerators that no longer enumerate: {stale}"


# One structure square.  A t-series squares to zero through the one flatness
# square of the structure-series preamble, ``tseries.flatness_claims``, which
# ``bv_check`` and ``ibl_check`` both call; ``x @ x`` of one name elsewhere in
# the library is a second flatness implementation.
STRUCTURE_SQUARES = {
    "tseries.flatness_claims": "the preamble's flatness square, read back by unflatten",
    "bv.verify_poisson": "P(Delta)^2 squares a coderivation on words, not a t-series",
}


def squares(path: Path) -> list:
    """(owner, line) of each ``x @ x`` with one name on both sides."""
    return [(owner, node.lineno) for owner, node in owned_nodes(path)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and isinstance(node.left, ast.Name) and isinstance(node.right, ast.Name)
            and node.left.id == node.right.id]


def test_one_structure_square():
    sites = [site for path in LIBRARY_MODULES for site in squares(path)]
    stray = [site for site in sites if site[0] not in STRUCTURE_SQUARES]
    assert not stray, f"a square outside the preamble (call tseries.flatness_claims): {stray}"
    stale = sorted(set(STRUCTURE_SQUARES) - {owner for owner, _ in sites})
    assert not stale, f"allowlisted squares that no longer square: {stale}"


# One intertwining claim.  f D = D' f of a morphism series is decided in
# ``tseries.intertwining_claims``, which the BV and IBL morphism checks and the
# exp data of ``bv.cl_bijection`` call; one operand on the left of one ``@`` and
# on the right of another in the same function, the shape f D - D' f, is a
# second intertwining defect.
INTERTWINING_DEFECTS = {
    "tseries.intertwining_claims": "the one flat defect f D - D' f of a morphism series",
    "core.LinOp.bracket": "the graded commutator of two operators, s o - (-1)^{|s||o|} o s",
}


def intertwining_defects(path: Path) -> list:
    """(owner, line) of each ``@`` whose left operand is the right operand of
    another ``@`` of the same owner."""
    products = [(owner, node) for owner, node in owned_nodes(path)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]
    return [(owner, node.lineno) for owner, node in products
            if any(other is not node and where == owner
                   and ast.dump(other.right) == ast.dump(node.left) for where, other in products)]


def test_one_intertwining_defect():
    sites = [site for path in LIBRARY_MODULES for site in intertwining_defects(path)]
    stray = [site for site in sites if site[0] not in INTERTWINING_DEFECTS]
    assert not stray, f"an intertwining defect outside the one claim " \
                      f"(call tseries.intertwining_claims): {stray}"
    stale = sorted(set(INTERTWINING_DEFECTS) - {owner for owner, _ in sites})
    assert not stale, f"allowlisted defects that no longer intertwine: {stale}"
