"""Framework of the invariant linter: rules, suppressions, config, driver.

The moving parts, smallest first:

* :class:`Diagnostic` — one finding, with a stable rule code and a
  file/line/column anchor.
* :class:`Suppression` — a parsed ``# repro: lint-ok[RPL###] <reason>``
  comment.  Suppressions must carry a reason and must match at least one
  violation; both failure modes are reported under the reserved code
  ``RPL000`` so stale or lazy suppressions cannot accumulate.
* :class:`ModuleInfo` — one parsed source file (tree, lines,
  suppressions, package-relative path) handed to every rule.
* :class:`LintRule` — base class; concrete rules register through
  :data:`repro.registry.LINT_RULES` (entry-point group
  ``repro.lint_rules``) so external rule packs are discovered exactly
  like optimisers and objectives.
* :class:`LintConfig` — the ``[tool.repro.lint]`` table of
  ``pyproject.toml``: per-rule path allowlists and the frozen-reference
  twin map.  Python 3.10 lacks :mod:`tomllib`; there the built-in
  defaults (kept bit-identical to the shipped pyproject by a test)
  apply.
* :func:`lint_paths` / :func:`lint_source` — the driver: parse, run the
  applicable rules, apply suppressions, report what is left.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Reserved code for problems with suppression comments themselves
#: (missing reason, matching no violation).  Not suppressible.
SUPPRESSION_CODE = "RPL000"

_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*lint-ok\[(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]"
    r"[ \t]*(?P<reason>.*)$"
)


# ----------------------------------------------------------------------
# Data model
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class Diagnostic:
    """One linter finding, anchored to ``path:line:col``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: lint-ok[...]`` comment.

    ``target_line`` is the source line the suppression covers: the
    comment's own line for a trailing comment, the following line for a
    comment that stands alone on its line.
    """

    comment_line: int
    target_line: int
    codes: Tuple[str, ...]
    reason: str


@dataclass
class ModuleInfo:
    """One parsed module as seen by the rules."""

    path: str  # package-relative POSIX path, e.g. "repro/bo/base.py"
    source: str
    tree: ast.Module
    suppressions: List[Suppression]

    @property
    def is_reference(self) -> bool:
        return Path(self.path).name == "_reference.py"


class LintError(ValueError):
    """Unusable input: unparsable file, missing path, bad config."""


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
#: Built-in defaults, kept bit-identical to the ``[tool.repro.lint]``
#: table in the shipped pyproject.toml (asserted by the lint test suite)
#: so Python 3.10 — which has no ``tomllib`` — lints identically.
DEFAULT_ALLOW: Dict[str, Tuple[str, ...]] = {
    # Wall-clock reads with no path into results: retry backoff and
    # deadline supervision (faults/run).  Event timestamps in
    # bo/base.py are suppressed inline instead, at their single source.
    "RPL002": (
        "repro/engine/faults.py",
        "repro/api/run.py",
    ),
    # The sanctioned environment-access layer: the config module, the
    # CLI, and the campaign env-override layer.
    "RPL006": (
        "repro/config.py",
        "repro/cli.py",
        "repro/api/campaign.py",
    ),
    # The one sanctioned ProcessPoolExecutor construction site: WarmPool.
    "RPL008": (
        "repro/engine/pool.py",
    ),
}

DEFAULT_REFERENCE_TWINS: Dict[str, str] = {
    "repro/aig/_reference.py": "repro/aig/cuts.py",
    "repro/mapping/_reference.py": "repro/mapping/lut_mapper.py",
    "repro/gp/kernels/_reference.py": "repro/gp/kernels/ssk.py",
}


@dataclass(frozen=True)
class LintConfig:
    """The ``[tool.repro.lint]`` table.

    Attributes
    ----------
    select:
        Rule codes to run (empty = every registered rule).
    ignore:
        Rule codes to skip.
    allow:
        Per-rule path allowlists — ``fnmatch`` globs over the
        package-relative path; a matching file is exempt from that rule
        (for whole-file exemptions like "the config layer may read the
        environment"; single deliberate sites use inline suppressions).
    reference_twins:
        Frozen ``_reference.py`` path → optimised twin path, for RPL007.
    """

    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    allow: Mapping[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW))
    reference_twins: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_REFERENCE_TWINS))

    def rule_enabled(self, code: str) -> bool:
        if code in self.ignore:
            return False
        return not self.select or code in self.select

    def path_allowed(self, code: str, path: str) -> bool:
        """True when ``path`` is allowlisted (exempt) for rule ``code``."""
        return any(fnmatch(path, pattern)
                   for pattern in self.allow.get(code, ()))

    # ------------------------------------------------------------------
    @classmethod
    def from_table(cls, table: Mapping[str, object]) -> "LintConfig":
        """Build a config from a parsed ``[tool.repro.lint]`` table."""
        allow_table = table.get("allow", {})
        twins_table = table.get("reference-twins", {})
        if not isinstance(allow_table, Mapping) or not isinstance(
                twins_table, Mapping):
            raise LintError("[tool.repro.lint] allow/reference-twins "
                            "must be tables")
        return cls(
            select=tuple(table.get("select", ()) or ()),
            ignore=tuple(table.get("ignore", ()) or ()),
            allow={str(code): tuple(str(p) for p in paths)
                   for code, paths in allow_table.items()},
            reference_twins={str(ref): str(twin)
                             for ref, twin in twins_table.items()},
        )

    @classmethod
    def from_pyproject(cls, pyproject: Optional[Path]) -> "LintConfig":
        """Load from ``pyproject.toml``; built-in defaults when absent.

        ``tomllib`` is stdlib from Python 3.11; on 3.10 (or for a
        missing/untabled pyproject) the defaults apply — they mirror the
        shipped table exactly.
        """
        if pyproject is None or not pyproject.is_file():
            return cls()
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python 3.10 fallback
            return cls()
        try:
            data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        except (OSError, tomllib.TOMLDecodeError) as error:
            raise LintError(f"cannot read {pyproject}: {error}") from None
        table = data.get("tool", {}).get("repro", {}).get("lint")
        if table is None:
            return cls()
        return cls.from_table(table)


def find_pyproject(start: Path) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    node = start if start.is_dir() else start.parent
    for candidate in (node, *node.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


# ----------------------------------------------------------------------
# Rule protocol
# ----------------------------------------------------------------------
class LintContext:
    """Shared state rules may consult: config plus a twin-module loader."""

    def __init__(self, config: LintConfig,
                 source_root: Optional[Path] = None) -> None:
        self.config = config
        self.source_root = source_root
        self._module_cache: Dict[str, Optional[ModuleInfo]] = {}

    def load_module(self, rel_path: str) -> Optional[ModuleInfo]:
        """Parse a sibling module by package-relative path (cached)."""
        if rel_path not in self._module_cache:
            info: Optional[ModuleInfo] = None
            if self.source_root is not None:
                full = self.source_root / rel_path
                if full.is_file():
                    try:
                        info = parse_module(
                            full.read_text(encoding="utf-8"), rel_path)
                    except LintError:
                        info = None
            self._module_cache[rel_path] = info
        return self._module_cache[rel_path]


class LintRule:
    """Base class of one checker.

    Subclasses set the class attributes and implement :meth:`check`;
    ``paths`` restricts a rule to package-relative path prefixes (empty
    = every module).  Register with
    :func:`repro.registry.register_lint_rule` so the rule is discovered
    by the driver and by external tooling alike.
    """

    #: Stable diagnostic code, ``RPL###`` for the built-in pack.
    code: str = ""
    #: Short human name used in listings.
    name: str = ""
    #: One-line rationale shown in ``repro lint --explain``-style docs.
    rationale: str = ""
    #: Path prefixes the rule applies to (empty tuple = all files).
    paths: Tuple[str, ...] = ()

    def applies_to(self, module: ModuleInfo) -> bool:
        if not self.paths:
            return True
        return any(module.path.startswith(prefix) for prefix in self.paths)

    def check(self, module: ModuleInfo,
              context: LintContext) -> Iterable[Diagnostic]:
        raise NotImplementedError

    # Convenience for subclasses.
    def diagnostic(self, module: ModuleInfo, node: ast.AST,
                   message: str) -> Diagnostic:
        return Diagnostic(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


def default_rules() -> List[LintRule]:
    """Instantiate every registered rule (built-ins + entry points)."""
    from repro.registry import LINT_RULES

    rules = []
    for key, entry in LINT_RULES.items():
        rule = entry() if isinstance(entry, type) else entry
        if not isinstance(rule, LintRule):
            raise LintError(
                f"lint rule {key!r} is not a LintRule: {entry!r}")
        rules.append(rule)
    return sorted(rules, key=lambda rule: rule.code)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _collect_suppressions(source: str) -> List[Suppression]:
    """Extract lint-ok comments via :mod:`tokenize` (string-literal safe)."""
    suppressions: List[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            codes = tuple(code.strip()
                          for code in match.group("codes").split(","))
            line = token.start[0]
            own_line = token.line[:token.start[1]].strip() == ""
            suppressions.append(Suppression(
                comment_line=line,
                target_line=line + 1 if own_line else line,
                codes=codes,
                reason=match.group("reason").strip(),
            ))
    except tokenize.TokenError:
        # The ast.parse in parse_module reports the real syntax error.
        pass
    return suppressions


def parse_module(source: str, rel_path: str) -> ModuleInfo:
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as error:
        raise LintError(f"cannot parse {rel_path}: {error}") from None
    return ModuleInfo(
        path=rel_path,
        source=source,
        tree=tree,
        suppressions=_collect_suppressions(source),
    )


def source_root_for(path: Path) -> Path:
    """Directory containing the top-level package of ``path``.

    Walks up while ``__init__.py`` is present, so
    ``.../src/repro/bo/base.py`` maps to ``.../src`` and the
    package-relative path becomes ``repro/bo/base.py``.
    """
    node = path if path.is_dir() else path.parent
    while (node / "__init__.py").is_file() and node.parent != node:
        node = node.parent
    return node


def _iter_python_files(path: Path) -> Iterable[Path]:
    if path.is_file():
        yield path
        return
    for file in sorted(path.rglob("*.py")):
        if "__pycache__" not in file.parts:
            yield file


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _run_rules(modules: Sequence[ModuleInfo], config: LintConfig,
               rules: Sequence[LintRule],
               context: LintContext) -> List[Diagnostic]:
    """Run rules and reconcile findings against suppressions."""
    diagnostics: List[Diagnostic] = []
    for module in modules:
        raw: List[Diagnostic] = []
        for rule in rules:
            if not config.rule_enabled(rule.code):
                continue
            if not rule.applies_to(module):
                continue
            if config.path_allowed(rule.code, module.path):
                continue
            raw.extend(rule.check(module, context))

        used: set = set()
        for finding in raw:
            matched = False
            for index, suppression in enumerate(module.suppressions):
                if (finding.line == suppression.target_line
                        and finding.code in suppression.codes
                        and suppression.reason):
                    used.add(index)
                    matched = True
            if not matched:
                diagnostics.append(finding)

        # The suppression inventory must stay honest: no reason, or no
        # matching violation, is itself a finding (RPL000 — reserved,
        # not suppressible).
        for index, suppression in enumerate(module.suppressions):
            if not suppression.reason:
                diagnostics.append(Diagnostic(
                    path=module.path, line=suppression.comment_line, col=0,
                    code=SUPPRESSION_CODE,
                    message="suppression must carry a written reason: "
                            "# repro: lint-ok[CODE] <why this is safe>",
                ))
            elif index not in used:
                codes = ",".join(suppression.codes)
                diagnostics.append(Diagnostic(
                    path=module.path, line=suppression.comment_line, col=0,
                    code=SUPPRESSION_CODE,
                    message=f"unused suppression [{codes}]: no such "
                            "violation on this line — delete the comment "
                            "(or re-anchor it) so the inventory stays "
                            "honest",
                ))
    return sorted(diagnostics)


def lint_paths(
    paths: Sequence[object],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Diagnostic]:
    """Lint files/directories; returns sorted diagnostics."""
    resolved = [Path(str(path)) for path in paths]
    for path in resolved:
        if not path.exists():
            raise LintError(f"no such file or directory: {path}")
    if config is None:
        pyproject = find_pyproject(resolved[0]) if resolved else None
        config = LintConfig.from_pyproject(pyproject)
    if rules is None:
        rules = default_rules()

    modules: List[ModuleInfo] = []
    root: Optional[Path] = None
    for path in resolved:
        for file in _iter_python_files(path):
            file_root = source_root_for(file)
            root = root or file_root
            rel = file.resolve().relative_to(file_root.resolve()).as_posix()
            modules.append(parse_module(
                file.read_text(encoding="utf-8"), rel))
    context = LintContext(config, source_root=root)
    return _run_rules(modules, config, rules, context)


def lint_source(
    source: str,
    rel_path: str,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[LintRule]] = None,
    source_root: Optional[object] = None,
) -> List[Diagnostic]:
    """Lint one in-memory module under a virtual package-relative path.

    The meta-test uses this to prove the rule pack bites: seeding a
    rule's negative fixture into a virtual ``repro/...`` module, or
    re-linting a real module with one suppression deleted, must produce
    diagnostics.  ``source_root`` (when given) enables cross-module
    rules (RPL007 twin loading) against the real tree.
    """
    if config is None:
        config = LintConfig()
    if rules is None:
        rules = default_rules()
    module = parse_module(source, rel_path)
    context = LintContext(
        config,
        source_root=Path(str(source_root)) if source_root is not None else None,
    )
    return _run_rules([module], config, rules, context)


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------
def format_diagnostics_text(diagnostics: Sequence[Diagnostic],
                            checked: Optional[int] = None) -> str:
    lines = [diag.format() for diag in diagnostics]
    summary = (f"{len(diagnostics)} problem(s)"
               if diagnostics else "clean")
    if checked is not None:
        summary += f" in {checked} file(s)"
    lines.append(summary)
    return "\n".join(lines)


def format_diagnostics_json(diagnostics: Sequence[Diagnostic],
                            checked: Optional[int] = None) -> str:
    counts: Dict[str, int] = {}
    for diag in diagnostics:
        counts[diag.code] = counts.get(diag.code, 0) + 1
    payload = {
        "version": 1,
        "checked_files": checked,
        "counts": counts,
        "diagnostics": [diag.to_dict() for diag in diagnostics],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
