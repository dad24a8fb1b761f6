"""The invariant-lint engine: one AST pass per file, many rules.

Every rule is a :class:`Rule` (id, rationale, scope, a ``visit`` hook,
structured :class:`Violation`\\ s).  Each scanned file is parsed **once**
and walked **once**, with every in-scope rule seeing every node; rules
that need cross-file knowledge accumulate it during the walk and emit
their violations in ``finalize``.  Suppressions are one mapping from
``rule-id:qualname`` to a reason, and an entry that no longer suppresses
anything is itself a violation (rule ``A0``), so the mapping can only
shrink toward the truth.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

#: Rule id used for stale-suppression violations (engine-owned, not in
#: the registry: it cannot be selected with ``--rule`` and never needs
#: allowlisting itself).
STALE_RULE = "A0"


@dataclass(frozen=True)
class Violation:
    """One broken invariant, anchored to source and to a fix."""

    rule: str       #: rule id, e.g. ``"D1"``
    path: str       #: repo-relative posix path
    line: int       #: 1-based line number
    qualname: str   #: dotted scope, e.g. ``repro.memsys.dsm.Dsm._do_clean``
    message: str    #: what is wrong, concretely
    hint: str       #: how to fix it (or where to allowlist it)

    @property
    def key(self) -> str:
        """The allow key that would suppress this violation."""
        return f"{self.rule}:{self.qualname}"

    def format(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
                f"    fix: {self.hint}")


class Rule:
    """Base class of every lint rule: metadata, a scope, two hooks."""

    id: str = "??"
    title: str = ""
    rationale: str = ""      #: the *why*, shown by ``--explain``
    hint: str = ""           #: default fix hint
    subsystem: str = ""      #: owning subsystem (DESIGN.md rule table)
    packages: Tuple[str, ...] = ()   #: the packages whose files it visits

    def scope(self, module: str) -> bool:
        """Whether files of dotted *module* should be visited at all."""
        return _in_packages(module, self.packages)

    def visit(self, ctx: "FileContext", node: ast.AST) -> None:
        """Called for **every** AST node of every in-scope file during
        the single shared walk."""

    def finalize(self) -> Iterable[Violation]:
        """Called once after every file has been walked: the violations
        that needed the whole tree (class hierarchies, attribute
        registries).  A rule that kept such cross-file state clears it
        here, so the next run starts empty."""
        return ()

    def explain(self) -> str:
        return (f"{self.id}: {self.title}\n"
                f"  owner:     {self.subsystem}\n"
                f"  rationale: {self.rationale}\n"
                f"  fix:       {self.hint}")


def _in_packages(module: str, packages: Iterable[str]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".")
               for pkg in packages)


class FileContext:
    """Per-file state the walker maintains for the rules.

    Rules read ``module``, ``lines``, ``imports``, and the ancestor
    ``node_stack``; they report through :meth:`report`, which fills in
    path and the current dotted qualname.
    """

    def __init__(self, relpath: str, module: str, lines: List[str],
                 violations: List[Violation]):
        self.relpath = relpath
        self.module = module
        self.lines = lines
        self.violations = violations
        #: Ancestors of the node currently being visited (outermost first,
        #: excluding the node itself).
        self.node_stack: List[ast.AST] = []
        #: local name -> dotted origin, accumulated from import statements
        #: as the walk passes them (imports precede uses in source order).
        self.imports: Dict[str, str] = {}

    @property
    def qualname(self) -> str:
        """The module and the enclosing class/function names, dotted."""
        return ".".join([self.module] + [
            scope.name for scope in self.node_stack
            if isinstance(scope, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))])

    def report(self, rule: Rule, node: ast.AST, message: str,
               hint: Optional[str] = None) -> None:
        self.violations.append(Violation(
            rule.id, self.relpath, node.lineno, self.qualname, message,
            hint if hint is not None else rule.hint))

    def track_import(self, node: ast.AST) -> None:
        """Record import bindings so rules can resolve dotted origins."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    self.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    self.imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = self.import_base(node)
            for alias in node.names:
                local = alias.asname or alias.name
                self.imports[local] = (f"{base}.{alias.name}" if base
                                       else alias.name)

    def import_base(self, node: ast.ImportFrom) -> str:
        """The absolute package an ``ImportFrom`` resolves against."""
        if not node.level:
            return node.module or ""
        parts = self.module.split(".")
        # level 1 is the current package (module file's parent).
        parts = parts[:len(parts) - node.level]
        if node.module:
            parts.append(node.module)
        return ".".join(parts)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to a dotted origin, or ``None``.

        ``obs_hooks.active`` resolves to ``repro.obs.hooks.active`` when
        the file imported ``from repro.obs import hooks as obs_hooks``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        return ".".join([base] + list(reversed(parts)))


@dataclass
class LintReport:
    """The outcome of one lint run."""

    rules: List[str]
    files_scanned: int
    violations: List[Violation]
    suppressed: List[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        lines = [v.format() for v in self.violations]
        if self.violations:
            lines.append(f"{len(self.violations)} violation(s) across "
                         f"{len({v.rule for v in self.violations})} rule(s)")
        else:
            lines.append(
                f"ok: {self.files_scanned} files, "
                f"{len(self.rules)} rules ({', '.join(self.rules)}), "
                f"{len(self.suppressed)} allowlisted suppression(s)")
        return "\n".join(lines)


def _module_name(relpath: Path) -> str:
    """Dotted module of ``src/repro/memsys/dsm.py`` -> ``repro.memsys.dsm``."""
    parts = list(relpath.with_suffix("").parts[1:])  # drop the "src" root
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _walk(ctx: FileContext, node: ast.AST, rules: Sequence[Rule]) -> None:
    ctx.track_import(node)
    for rule in rules:
        rule.visit(ctx, node)
    ctx.node_stack.append(node)
    for child in ast.iter_child_nodes(node):
        _walk(ctx, child, rules)
    ctx.node_stack.pop()


def run_lint(root: Path, rules: Optional[Sequence[str]] = None,
             allow: Optional[Mapping[str, str]] = None) -> LintReport:
    """Lint the tree under *root* (``<root>/src/**/*.py``).

    *rules* selects rule ids (``None`` runs the full registry -- only
    then is staleness of *allow* checked, since a partial run cannot tell
    a stale entry from an unexercised one).  *allow* maps
    ``rule-id:qualname`` -- a violation's exact scope, or its bare module
    for the whole file -- to the reason it is deliberate; ``None`` is the
    live tree's ``repro.lint.rules.ALLOW``, so a run over any other tree
    passes its own mapping (``{}`` for none).
    """
    from repro.lint.rules import ALLOW, select_rules

    if allow is None:
        allow = ALLOW
    blank = [key for key, reason in allow.items() if not reason.strip()]
    if blank:
        raise ValueError(
            f"allow entries {blank} have an empty reason; every "
            "suppression must say why")
    active = select_rules(rules)

    found: List[Violation] = []
    files_scanned = 0
    for path in sorted((root / "src").rglob("*.py")):
        relpath = path.relative_to(root)
        module = _module_name(relpath)
        scoped = [rule for rule in active if rule.scope(module)]
        if not scoped:
            continue
        source = path.read_text()
        ctx = FileContext(relpath.as_posix(), module, source.splitlines(),
                          found)
        _walk(ctx, ast.parse(source, filename=str(path)), scoped)
        files_scanned += 1
    for rule in active:
        found.extend(rule.finalize())

    # Dedup, first wins (a node can trip the same rule through two visit
    # paths -- a banned call and the attribute chain inside it land on one
    # line), then partition against *allow*.
    unique: Dict[tuple, Violation] = {}
    for violation in found:
        unique.setdefault(
            (violation.rule, violation.path, violation.line), violation)
    used = set()
    kept: List[Violation] = []
    suppressed: List[Violation] = []
    for violation in unique.values():
        whole_file = f"{violation.rule}:{_module_name(Path(violation.path))}"
        for key in (violation.key, whole_file):
            if key in allow:
                used.add(key)
                suppressed.append(violation)
                break
        else:
            kept.append(violation)

    if rules is None:
        kept.extend(
            Violation(rule=STALE_RULE, path="<allow>", line=0, qualname=key,
                      message=f"stale allow entry {key!r}: it no longer "
                              "suppresses any violation",
                      hint="delete the entry; the code it excused is fixed "
                           "or gone")
            for key in allow if key not in used)

    kept.sort(key=lambda v: (v.path, v.line, v.rule))
    return LintReport(rules=[r.id for r in active],
                      files_scanned=files_scanned,
                      violations=kept, suppressed=suppressed)


def repo_root() -> Path:
    """The repository root this package was imported from."""
    return Path(__file__).resolve().parents[3]
