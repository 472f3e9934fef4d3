"""The built-in RPL rule pack: the repo's hard-won invariants, as code.

Each rule encodes an invariant class that previously cost review cycles
(see the PR history in CHANGES.md): unseeded RNG, wall-clock reads in
result paths, set-iteration order, pickle-unsafe IPC, RFC-8259-illegal
checkpoint values, ad-hoc environment reads, and drift between frozen
``_reference`` modules and their optimised twins.

Rules register through :func:`repro.registry.register_lint_rule`
(entry-point group ``repro.lint_rules``), so an external package can
ship additional rules the same way it ships optimisers or objectives.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.core import Diagnostic, LintContext, LintRule, ModuleInfo
from repro.registry import register_lint_rule


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted import they are bound to.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from datetime import datetime`` → ``{"datetime": "datetime.datetime"}``.
    Only import-bound names appear, so a local variable that happens to
    be called ``random`` never resolves to the stdlib module.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
    return aliases


def resolve_dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve ``np.random.rand`` to ``"numpy.random.rand"`` (or None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        base = aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))
    return None


def _function_args_signature(args: ast.arguments) -> str:
    """Order/name/default signature of a function, annotations ignored.

    Annotations are deliberately excluded from parity: the optimised
    twin may gain richer types without breaking the golden contract, but
    renaming, reordering or re-defaulting a parameter would.
    """
    def fmt(arg_list: List[ast.arg]) -> List[str]:
        return [arg.arg for arg in arg_list]

    defaults = [ast.unparse(default) for default in args.defaults]
    kw_defaults = [ast.unparse(default) if default is not None else None
                   for default in args.kw_defaults]
    return repr((
        fmt(args.posonlyargs), fmt(args.args),
        args.vararg.arg if args.vararg else None,
        fmt(args.kwonlyargs), kw_defaults,
        args.kwarg.arg if args.kwarg else None,
        defaults,
    ))


# ----------------------------------------------------------------------
# RPL001 — unseeded module-level RNG
# ----------------------------------------------------------------------
_NUMPY_SEEDED_CONSTRUCTORS = {
    "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}


@register_lint_rule
class UnseededRngRule(LintRule):
    code = "RPL001"
    name = "unseeded-rng"
    rationale = ("Module-level RNG (stdlib random.*, legacy np.random.*) "
                 "draws from hidden global state, breaking jobs=N == "
                 "jobs=1 and kill+resume bit-identity; RNG must be "
                 "threaded as a seeded np.random.Generator argument.")

    def check(self, module: ModuleInfo,
              context: LintContext) -> Iterable[Diagnostic]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            full = resolve_dotted(node.func, aliases)
            if full is None:
                continue
            if full.startswith("random.") and full != "random.Random":
                yield self.diagnostic(
                    module, node,
                    f"call to {full}() uses the stdlib global RNG; thread "
                    "a seeded np.random.Generator argument instead")
            elif full.startswith("numpy.random."):
                attr = full.rsplit(".", 1)[1]
                if attr == "default_rng":
                    if not node.args and not node.keywords:
                        yield self.diagnostic(
                            module, node,
                            "np.random.default_rng() without a seed is "
                            "entropy-seeded; pass an explicit seed or "
                            "SeedSequence")
                elif attr not in _NUMPY_SEEDED_CONSTRUCTORS:
                    yield self.diagnostic(
                        module, node,
                        f"call to {full}() uses numpy's legacy global "
                        "RNG; use a seeded np.random.Generator instead")


# ----------------------------------------------------------------------
# RPL002 — wall-clock reads in result-affecting paths
# ----------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register_lint_rule
class WallClockRule(LintRule):
    code = "RPL002"
    name = "wall-clock"
    rationale = ("Wall-clock reads in result-affecting paths make runs "
                 "machine- and load-dependent; clocks belong only in the "
                 "allowlisted operational layers (fault backoff, deadline "
                 "supervision, event timestamps, benchmarks).")

    def check(self, module: ModuleInfo,
              context: LintContext) -> Iterable[Diagnostic]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            full = resolve_dotted(node.func, aliases)
            if full in _WALL_CLOCK_CALLS:
                yield self.diagnostic(
                    module, node,
                    f"wall-clock read {full}() in a result-affecting "
                    "path; results must not depend on the clock "
                    "(allowlist the file or suppress with a reason if "
                    "this is operational timing only)")


# ----------------------------------------------------------------------
# RPL003 — set iteration feeding ordered results
# ----------------------------------------------------------------------
_SET_FORWARDING_CALLS = {"list", "tuple", "enumerate"}


class _SetIterationVisitor(ast.NodeVisitor):
    """Per-scope visitor: infer set-valued names, flag iteration."""

    def __init__(self, rule: "SetIterationRule", module: ModuleInfo,
                 findings: List[Diagnostic]) -> None:
        self.rule = rule
        self.module = module
        self.findings = findings
        self.set_names: Set[str] = set()

    # -- scope handling: nested functions restart the analysis ---------
    def _enter_scope(self, body: List[ast.stmt]) -> None:
        self.set_names = _infer_set_names(body)
        for stmt in body:
            self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        saved = self.set_names
        self._enter_scope(node.body)
        self.set_names = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- set-expression classification ---------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                    "set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "union", "intersection", "difference",
                    "symmetric_difference"):
                return self._is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self._is_set_expr(node.left)
                    or self._is_set_expr(node.right))
        return False

    def _flag(self, node: ast.AST, how: str) -> None:
        self.findings.append(self.rule.diagnostic(
            self.module, node,
            f"{how} iterates a set in arbitrary hash order; wrap it in "
            "sorted(...) before it can feed ordered results"))

    # -- iteration contexts --------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "for loop")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST) -> None:
        for generator in getattr(node, "generators", []):
            if self._is_set_expr(generator.iter):
                self._flag(generator.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension
    visit_DictComp = _check_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set comprehension *over* a set stays unordered — fine.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name)
                and node.func.id in _SET_FORWARDING_CALLS
                and node.args and self._is_set_expr(node.args[0])):
            self._flag(node.args[0], f"{node.func.id}(...)")
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr == "join"
              and node.args and self._is_set_expr(node.args[0])):
            self._flag(node.args[0], "str.join(...)")
        self.generic_visit(node)

    def visit_Starred(self, node: ast.Starred) -> None:
        if self._is_set_expr(node.value):
            self._flag(node.value, "star-unpacking")
        self.generic_visit(node)


def _infer_set_names(body: List[ast.stmt]) -> Set[str]:
    """Names assigned exclusively set-valued expressions in this scope.

    Conservative: one non-set assignment (or use as a loop/with target)
    disqualifies the name.  Nested function bodies are separate scopes
    and excluded from the scan.
    """
    candidates: Set[str] = set()
    disqualified: Set[str] = set()

    def is_set_literal(value: ast.AST) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "frozenset"))

    def scan(stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda, ast.ClassDef)):
                    continue  # separate scope; ast.walk still descends,
                    # but targets there rebinding our names is rare and
                    # only risks a false *negative*, never a false flag.
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            (candidates if is_set_literal(node.value)
                             else disqualified).add(target.id)
                        else:
                            for name in ast.walk(target):
                                if isinstance(name, ast.Name):
                                    disqualified.add(name.id)
                elif isinstance(node, ast.AnnAssign):
                    if isinstance(node.target, ast.Name) and node.value:
                        (candidates if is_set_literal(node.value)
                         else disqualified).add(node.target.id)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    for name in ast.walk(node.target):
                        if isinstance(name, ast.Name):
                            disqualified.add(name.id)
                elif isinstance(node, ast.withitem) and node.optional_vars:
                    for name in ast.walk(node.optional_vars):
                        if isinstance(name, ast.Name):
                            disqualified.add(name.id)

    scan(body)
    return candidates - disqualified


@register_lint_rule
class SetIterationRule(LintRule):
    code = "RPL003"
    name = "set-iteration-order"
    rationale = ("Iterating a set yields hash order, which varies across "
                 "processes and versions; anything feeding ordered "
                 "results must go through sorted(...).")

    def check(self, module: ModuleInfo,
              context: LintContext) -> Iterable[Diagnostic]:
        findings: List[Diagnostic] = []
        visitor = _SetIterationVisitor(self, module, findings)
        visitor._enter_scope(module.tree.body)
        return findings


# ----------------------------------------------------------------------
# RPL004 — IPC safety in the engine layer
# ----------------------------------------------------------------------
_POOL_SUBMISSION_METHODS = {
    "submit", "apply_async", "map", "map_async",
    "imap", "imap_unordered", "starmap",
}


@register_lint_rule
class IpcSafetyRule(LintRule):
    code = "RPL004"
    name = "ipc-safety"
    rationale = ("Objects crossing the process boundary must pickle: "
                 "pool callables must be module-level, and worker "
                 "exceptions with custom __init__ need a __reduce__ "
                 "whose args round-trip construction (the PR-7 "
                 "DeadlineExceeded bug class).")
    paths = ("repro/engine/", "repro/api/")

    def check(self, module: ModuleInfo,
              context: LintContext) -> Iterable[Diagnostic]:
        nested_defs = self._nested_function_names(module.tree)
        module_level = self._module_level_names(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_submission(
                    module, node, nested_defs, module_level)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_exception_class(module, node)

    # -- pool submissions ----------------------------------------------
    @staticmethod
    def _nested_function_names(tree: ast.Module) -> Set[str]:
        nested: Set[str] = set()
        for outer in ast.walk(tree):
            if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(outer):
                    if inner is not outer and isinstance(
                            inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        nested.add(inner.name)
        return nested

    @staticmethod
    def _module_level_names(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    names.add((alias.asname or alias.name).split(".")[0])
        return names

    def _callable_problem(self, func: ast.AST, nested: Set[str],
                          module_level: Set[str]) -> Optional[str]:
        if isinstance(func, ast.Lambda):
            return "a lambda cannot cross the process boundary (pickle); "\
                   "use a module-level function"
        if isinstance(func, ast.Name) and func.id in nested and \
                func.id not in module_level:
            return (f"nested function {func.id!r} cannot cross the "
                    "process boundary (pickle); hoist it to module level")
        if isinstance(func, ast.Call):
            # functools.partial(fn, ...): the wrapped fn must be safe.
            if isinstance(func.func, (ast.Name, ast.Attribute)):
                attr = (func.func.id if isinstance(func.func, ast.Name)
                        else func.func.attr)
                if attr == "partial" and func.args:
                    return self._callable_problem(
                        func.args[0], nested, module_level)
        return None

    def _check_submission(self, module: ModuleInfo, node: ast.Call,
                          nested: Set[str],
                          module_level: Set[str]) -> Iterable[Diagnostic]:
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_SUBMISSION_METHODS
                and node.args):
            problem = self._callable_problem(node.args[0], nested,
                                             module_level)
            if problem:
                yield self.diagnostic(module, node.args[0], problem)
        # Pool constructors: the initializer callable ships to workers.
        for keyword in node.keywords:
            if keyword.arg == "initializer":
                problem = self._callable_problem(keyword.value, nested,
                                                 module_level)
                if problem:
                    yield self.diagnostic(module, keyword.value, problem)

    # -- worker exceptions ---------------------------------------------
    @staticmethod
    def _is_exception_class(node: ast.ClassDef) -> bool:
        names = [node.name]
        for base in node.bases:
            if isinstance(base, ast.Name):
                names.append(base.id)
            elif isinstance(base, ast.Attribute):
                names.append(base.attr)
        return any(name.endswith(("Error", "Exception")) for name in names)

    def _check_exception_class(
            self, module: ModuleInfo,
            node: ast.ClassDef) -> Iterable[Diagnostic]:
        if not self._is_exception_class(node):
            return
        methods = {stmt.name: stmt for stmt in node.body
                   if isinstance(stmt, ast.FunctionDef)}
        init = methods.get("__init__")
        if init is not None and "__reduce__" not in methods:
            yield self.diagnostic(
                module, init,
                f"{node.name} defines __init__ without __reduce__: "
                "BaseException pickles as (cls, self.args), which no "
                "longer matches the constructor — the exception would "
                "die crossing back from a worker; add __reduce__ "
                "returning (cls, <constructor args>)")


# ----------------------------------------------------------------------
# RPL005 — JSON-exact serialisation payloads
# ----------------------------------------------------------------------
_PAYLOAD_FUNCTIONS = {"state_dict", "_state_dict", "to_payload",
                      "to_dict", "to_json"}
_NON_FINITE_NAMES = {
    "math.inf", "math.nan",
    "numpy.inf", "numpy.nan", "numpy.NINF", "numpy.NAN", "numpy.NaN",
    "numpy.PINF", "numpy.infty",
}


@register_lint_rule
class JsonExactRule(LintRule):
    code = "RPL005"
    name = "json-exact-payloads"
    rationale = ("Checkpoints, specs and RunEvent payloads must be "
                 "RFC-8259-exact JSON: json.dumps needs allow_nan=False "
                 "(so an accidental inf/nan fails loudly instead of "
                 "emitting illegal JSON — the PR-4 -inf sentinel bug "
                 "class), and arrays must go through "
                 "repro.serialise.encode_array, not .tolist().")

    def check(self, module: ModuleInfo,
              context: LintContext) -> Iterable[Diagnostic]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                full = resolve_dotted(node.func, aliases)
                if full in ("json.dump", "json.dumps"):
                    yield from self._check_dumps(module, node)
            elif isinstance(node, ast.FunctionDef) and \
                    node.name in _PAYLOAD_FUNCTIONS:
                yield from self._check_payload_function(module, node,
                                                        aliases)

    def _check_dumps(self, module: ModuleInfo,
                     node: ast.Call) -> Iterable[Diagnostic]:
        for keyword in node.keywords:
            if keyword.arg == "allow_nan":
                if (isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is False):
                    return
                yield self.diagnostic(
                    module, keyword.value,
                    "allow_nan must be the literal False: nan/inf "
                    "serialise to RFC-8259-illegal tokens that "
                    "json.loads round-trips inconsistently")
                return
        yield self.diagnostic(
            module, node,
            "json.dumps without allow_nan=False: an inf/nan smuggled "
            "into a payload emits illegal JSON instead of failing "
            "loudly (encode sentinels as null first — see "
            "repro.serialise)")

    def _check_payload_function(
            self, module: ModuleInfo, func: ast.FunctionDef,
            aliases: Dict[str, str]) -> Iterable[Diagnostic]:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and node.func.attr == "tolist":
                yield self.diagnostic(
                    module, node,
                    f"{func.name}() serialises an array via .tolist(), "
                    "which drops dtype and shape; use "
                    "repro.serialise.encode_array for JSON-exact "
                    "round-trips")
            elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name) and node.func.id == "float" and \
                    node.args and isinstance(node.args[0], ast.Constant) and \
                    str(node.args[0].value).lstrip("+-").lower() in (
                        "inf", "infinity", "nan"):
                yield self.diagnostic(
                    module, node,
                    f"{func.name}() builds a non-finite float, which "
                    "cannot cross JSON exactly; encode the sentinel as "
                    "null (the PR-4 checkpoint bug class)")
            else:
                full = resolve_dotted(node, aliases) if isinstance(
                    node, ast.Attribute) else None
                if full in _NON_FINITE_NAMES:
                    yield self.diagnostic(
                        module, node,
                        f"{func.name}() uses {full}, which cannot cross "
                        "JSON exactly; encode the sentinel as null")


# ----------------------------------------------------------------------
# RPL006 — environment reads outside the config/CLI layer
# ----------------------------------------------------------------------
@register_lint_rule
class EnvironReadRule(LintRule):
    code = "RPL006"
    name = "environ-outside-config"
    rationale = ("Scattered os.environ reads make behaviour depend on "
                 "ambient process state that specs and manifests never "
                 "capture; environment access belongs in the config/CLI "
                 "layer (repro.config, repro.cli, the campaign "
                 "env-override layer), which pins values into explicit "
                 "fields.")

    def check(self, module: ModuleInfo,
              context: LintContext) -> Iterable[Diagnostic]:
        aliases = import_aliases(module.tree)
        seen_lines: Set[int] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            full = resolve_dotted(node, aliases)
            if full in ("os.environ", "os.getenv", "os.putenv"):
                if node.lineno in seen_lines:
                    continue
                seen_lines.add(node.lineno)
                yield self.diagnostic(
                    module, node,
                    f"{full} read outside the config/CLI layer; route "
                    "it through repro.config so the value is pinned "
                    "into explicit spec/campaign fields")


# ----------------------------------------------------------------------
# RPL007 — frozen reference twins
# ----------------------------------------------------------------------
@register_lint_rule
class ReferenceTwinRule(LintRule):
    code = "RPL007"
    name = "reference-twin-drift"
    rationale = ("Frozen _reference.py modules anchor the golden "
                 "equivalence suite: importing optimised code paths "
                 "would make the reference measure itself, and public "
                 "signature drift silently weakens what the goldens "
                 "compare.")

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.is_reference

    def check(self, module: ModuleInfo,
              context: LintContext) -> Iterable[Diagnostic]:
        twin_path = context.config.reference_twins.get(module.path)
        if twin_path is None:
            yield self.diagnostic(
                module, module.tree,
                "frozen _reference module has no [tool.repro.lint]"
                ".reference-twins entry; declare its optimised twin so "
                "import and signature parity can be checked")
            return
        twin = context.load_module(twin_path)
        if twin is None:
            yield self.diagnostic(
                module, module.tree,
                f"configured twin {twin_path!r} does not exist or does "
                "not parse")
            return
        twin_dotted = twin_path[:-3].replace("/", ".")
        twin_functions = {stmt.name: stmt for stmt in twin.tree.body
                          if isinstance(stmt, ast.FunctionDef)}
        twin_classes = {stmt.name: stmt for stmt in twin.tree.body
                        if isinstance(stmt, ast.ClassDef)}

        yield from self._check_imports(module, twin_dotted, twin_classes)
        yield from self._check_parity(module, twin_path, twin_functions,
                                      twin_classes)

    # -- no optimised code paths imported ------------------------------
    def _check_imports(self, module: ModuleInfo, twin_dotted: str,
                       twin_classes: Dict[str, ast.ClassDef]
                       ) -> Iterable[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == twin_dotted:
                        yield self.diagnostic(
                            module, node,
                            f"frozen reference imports its optimised "
                            f"twin module {twin_dotted}; the reference "
                            "must stay self-contained")
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == twin_dotted and not node.level:
                for alias in node.names:
                    if alias.name not in twin_classes:
                        yield self.diagnostic(
                            module, node,
                            f"frozen reference imports {alias.name!r} "
                            f"from its optimised twin {twin_dotted}; "
                            "only shared data types (classes) may be "
                            "imported — optimised functions would make "
                            "the reference measure itself")

    # -- public signature parity ---------------------------------------
    @staticmethod
    def _twin_name(name: str, is_class: bool) -> str:
        if is_class:
            return name[len("Reference"):] if name.startswith(
                "Reference") else name
        return name[:-len("_reference")] if name.endswith(
            "_reference") else name

    def _check_parity(self, module: ModuleInfo, twin_path: str,
                      twin_functions: Dict[str, ast.FunctionDef],
                      twin_classes: Dict[str, ast.ClassDef]
                      ) -> Iterable[Diagnostic]:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.FunctionDef) and \
                    not stmt.name.startswith("_"):
                target = self._twin_name(stmt.name, is_class=False)
                counterpart = twin_functions.get(target)
                if counterpart is None:
                    yield self.diagnostic(
                        module, stmt,
                        f"public reference function {stmt.name}() has no "
                        f"optimised counterpart {target}() in {twin_path}")
                elif (_function_args_signature(stmt.args)
                      != _function_args_signature(counterpart.args)):
                    yield self.diagnostic(
                        module, stmt,
                        f"signature of {stmt.name}() drifted from its "
                        f"optimised twin {target}() in {twin_path}: the "
                        "golden equivalence suite compares them "
                        "positionally")
            elif isinstance(stmt, ast.ClassDef) and \
                    not stmt.name.startswith("_"):
                target = self._twin_name(stmt.name, is_class=True)
                twin_class = twin_classes.get(target)
                if twin_class is None:
                    yield self.diagnostic(
                        module, stmt,
                        f"public reference class {stmt.name} has no "
                        f"optimised counterpart {target} in {twin_path}")
                    continue
                twin_methods = {m.name: m for m in twin_class.body
                                if isinstance(m, ast.FunctionDef)}
                for method in stmt.body:
                    if not isinstance(method, ast.FunctionDef):
                        continue
                    if method.name.startswith("_") and \
                            method.name != "__init__" and \
                            not method.name.startswith("__"):
                        continue
                    counterpart = twin_methods.get(method.name)
                    if counterpart is None:
                        continue  # reference-only helpers are fine
                    if (_function_args_signature(method.args)
                            != _function_args_signature(counterpart.args)):
                        yield self.diagnostic(
                            module, method,
                            f"signature of {stmt.name}.{method.name}() "
                            f"drifted from {target}.{method.name}() in "
                            f"{twin_path}")


# ----------------------------------------------------------------------
# RPL008 — warm pools only: no per-call executor construction
# ----------------------------------------------------------------------
_POOL_CONSTRUCTORS = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
}


@register_lint_rule
class WarmPoolRule(LintRule):
    code = "RPL008"
    name = "warm-pool-only"
    rationale = ("Per-call ProcessPoolExecutor construction in the "
                 "engine/api hot paths re-pays process spin-up, spec "
                 "pickling and circuit rebuild on every call — the "
                 "parallelism-inversion bug class.  Pools must come from "
                 "the engine-owned repro.engine.pool.WarmPool accessor "
                 "(the allowlisted construction site).")
    paths = ("repro/engine/", "repro/api/")

    def check(self, module: ModuleInfo,
              context: LintContext) -> Iterable[Diagnostic]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = (aliases.get(node.func.id)
                      if isinstance(node.func, ast.Name)
                      else resolve_dotted(node.func, aliases))
            if dotted in _POOL_CONSTRUCTORS:
                yield self.diagnostic(
                    module, node,
                    f"direct {dotted.rsplit('.', 1)[-1]} construction in an "
                    "engine/api hot path; obtain the pool from the "
                    "engine-owned WarmPool (repro.engine.pool) so workers "
                    "stay warm across cells")


#: Stable listing used by the README rule table and the CLI.
RULE_PACK: Tuple[type, ...] = (
    UnseededRngRule, WallClockRule, SetIterationRule, IpcSafetyRule,
    JsonExactRule, EnvironReadRule, ReferenceTwinRule, WarmPoolRule,
)
