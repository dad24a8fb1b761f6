"""The invariant-lint engine: one AST pass per file, many rules.

The reproduction's trustworthiness rests on contracts we can state
precisely -- tracing costs nothing when disabled, checkpoints capture
*all* machine state, replay digests are bit-identical across processes --
and each contract used to be enforced by its own one-off script with its
own AST walker, allowlist format, and exit convention.  This engine
replaces them with one shared pass:

* every rule implements the :class:`Rule` protocol (id, rationale, scope
  predicate, visit hooks, structured :class:`Violation`\\ s);
* each scanned file is parsed **once** and walked **once**, with every
  in-scope rule seeing every node (rules that need cross-file knowledge
  accumulate it during the walk and emit violations in ``finalize``);
* suppressions live in one allowlist file (``lint_allow.toml``) mapping
  ``rule-id:qualname`` to a reason, and entries that no longer suppress
  anything are themselves violations (rule ``A0``), so the allowlist can
  only shrink toward the truth.

``python -m repro.lint`` is the CLI; ``tests/test_lint.py`` runs the
registry over the live tree and over fixture packages of known-bad code.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.allowlist import AllowEntry, load_allowlist

#: Rule id used for stale-allowlist violations (engine-owned, not in the
#: registry: it cannot be selected with ``--rule`` and never needs
#: allowlisting itself).
STALE_RULE = "A0"

#: Schema version of the ``--json`` payload.
JSON_SCHEMA_VERSION = 1

DEFAULT_ALLOWLIST = "lint_allow.toml"


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
        """The allowlist key that would suppress this violation."""
        return f"{self.rule}:{self.qualname}"

    def format(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message}\n"
                f"    fix: {self.hint}")

    def to_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "qualname": self.qualname, "message": self.message,
                "hint": self.hint}

    @classmethod
    def from_dict(cls, payload: dict) -> "Violation":
        return cls(**payload)


class Rule:
    """Base class of every lint rule.

    Subclasses set the metadata class attributes and override any of the
    hooks.  ``visit`` is called for **every** AST node of every in-scope
    file during the single shared walk; ``finalize`` runs once after all
    files, for rules that need cross-file knowledge (class hierarchies,
    attribute registries).
    """

    id: str = "??"
    title: str = ""
    rationale: str = ""      #: the *why*, shown by ``--explain``
    hint: str = ""           #: default fix hint
    subsystem: str = ""      #: owning subsystem (DESIGN.md rule table)

    def scope(self, module: str) -> bool:
        """Whether files of dotted *module* should be visited at all."""
        return True

    def start_file(self, ctx: "FileContext") -> None:
        """Called once per in-scope file, before the walk."""

    def visit(self, ctx: "FileContext", node: ast.AST) -> None:
        """Called for every node of every in-scope file."""

    def end_file(self, ctx: "FileContext") -> None:
        """Called once per in-scope file, after the walk."""

    def finalize(self, run: "RunContext") -> None:
        """Called once after every file has been walked."""

    def explain(self) -> str:
        return (f"{self.id}: {self.title}\n"
                f"  owner:     {self.subsystem}\n"
                f"  rationale: {self.rationale}\n"
                f"  fix:       {self.hint}")


def _in_packages(module: str, packages: Iterable[str]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".")
               for pkg in packages)


class RunContext:
    """Cross-file state shared by every rule for one lint run."""

    def __init__(self, root: Path):
        self.root = root
        #: rule id -> arbitrary scratch space for cross-file registries.
        self.store: Dict[str, dict] = {}
        self.violations: List[Violation] = []
        self.files_scanned = 0

    def scratch(self, rule: Rule) -> dict:
        return self.store.setdefault(rule.id, {})

    def report(self, rule: Rule, *, path: str, line: int, qualname: str,
               message: str, hint: Optional[str] = None) -> None:
        self.violations.append(Violation(
            rule=rule.id, path=path, line=line, qualname=qualname,
            message=message, hint=hint if hint is not None else rule.hint))


class FileContext:
    """Per-file state the walker maintains for the rules.

    Rules read ``module``, ``lines``, ``imports``, and the ancestor
    ``node_stack``; they report through :meth:`report`, which fills in
    path and the current dotted qualname.
    """

    def __init__(self, run: RunContext, path: Path, relpath: str,
                 module: str, source: str, tree: ast.AST):
        self.run = run
        self.path = path
        self.relpath = relpath
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: Ancestors of the node currently being visited (outermost first,
        #: excluding the node itself).
        self.node_stack: List[ast.AST] = []
        #: Names of enclosing ClassDef/FunctionDef scopes.
        self.scope_stack: List[str] = []
        #: local name -> dotted origin, accumulated from import statements
        #: as the walk passes them (imports precede uses in source order).
        self.imports: Dict[str, str] = {}

    @property
    def qualname(self) -> str:
        return ".".join([self.module] + self.scope_stack)

    def qualname_at(self, extra: Sequence[str] = ()) -> str:
        return ".".join([self.module] + self.scope_stack + list(extra))

    def parent(self) -> Optional[ast.AST]:
        return self.node_stack[-1] if self.node_stack else None

    def report(self, rule: Rule, node, message: str,
               hint: Optional[str] = None,
               qualname: Optional[str] = None) -> None:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        self.run.report(rule, path=self.relpath, line=line,
                        qualname=qualname or self.qualname,
                        message=message, hint=hint)

    # -- shared helpers -----------------------------------------------------

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
    """The outcome of one lint run, CLI- and JSON-renderable."""

    root: str
    rules: List[str]
    files_scanned: int
    violations: List[Violation]
    suppressed: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_rule(self) -> Dict[str, List[Violation]]:
        grouped: Dict[str, List[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.rule, []).append(violation)
        return grouped

    def format(self) -> str:
        lines = [v.format() for v in self.violations]
        if self.violations:
            lines.append(f"{len(self.violations)} violation(s) across "
                         f"{len(self.by_rule())} rule(s)")
        else:
            lines.append(
                f"ok: {self.files_scanned} files, "
                f"{len(self.rules)} rules ({', '.join(self.rules)}), "
                f"{len(self.suppressed)} allowlisted suppression(s)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": JSON_SCHEMA_VERSION,
            "root": self.root,
            "rules": list(self.rules),
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": [v.to_dict() for v in self.suppressed],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LintReport":
        if payload.get("schema") != JSON_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported lint JSON schema {payload.get('schema')!r} "
                f"(this reader speaks {JSON_SCHEMA_VERSION})")
        return cls(
            root=payload["root"],
            rules=list(payload["rules"]),
            files_scanned=payload["files_scanned"],
            violations=[Violation.from_dict(v)
                        for v in payload["violations"]],
            suppressed=[Violation.from_dict(v)
                        for v in payload["suppressed"]],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


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
    scoped = isinstance(node, (ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef))
    if scoped:
        ctx.scope_stack.append(node.name)
    ctx.node_stack.append(node)
    for child in ast.iter_child_nodes(node):
        _walk(ctx, child, rules)
    ctx.node_stack.pop()
    if scoped:
        ctx.scope_stack.pop()


def run_lint(root: Path, rules: Optional[Sequence[str]] = None,
             allowlist: Optional[Path] = None) -> LintReport:
    """Lint the tree under *root* (``<root>/src/**/*.py``).

    *rules* selects rule ids (``None`` runs the full registry -- only
    then is allowlist staleness checked, since a partial run cannot tell
    a stale entry from an unexercised one).  *allowlist* defaults to
    ``<root>/lint_allow.toml`` when that file exists.
    """
    from repro.lint.rules import REGISTRY, select_rules

    active = select_rules(rules)
    full_registry = rules is None
    run = RunContext(root)

    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        relpath = path.relative_to(root)
        module = _module_name(relpath)
        scoped = [rule for rule in active if rule.scope(module)]
        if not scoped:
            continue
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        ctx = FileContext(run, path, relpath.as_posix(), module, source,
                          tree)
        for rule in scoped:
            rule.start_file(ctx)
        _walk(ctx, tree, scoped)
        for rule in scoped:
            rule.end_file(ctx)
        run.files_scanned += 1
    for rule in active:
        rule.finalize(run)

    allow_path = (allowlist if allowlist is not None
                  else root / DEFAULT_ALLOWLIST)
    entries: List[AllowEntry] = (load_allowlist(allow_path)
                                 if allow_path.exists() else [])
    allow_by_key = {entry.key: entry for entry in entries}
    used = set()
    kept: List[Violation] = []
    suppressed: List[Violation] = []

    # Dedup (a node can trip the same rule through two visit paths -- a
    # forbidden call and the attribute chain inside it land on one line),
    # then partition against the allowlist.  An entry may name the
    # violation's exact qualname or its whole module.
    seen: set = set()
    for violation in run.violations:
        identity = (violation.rule, violation.path, violation.line)
        if identity in seen:
            continue
        seen.add(identity)
        for candidate in (violation.key, _module_of_key(violation)):
            entry = allow_by_key.get(candidate)
            if entry is not None:
                used.add(candidate)
                suppressed.append(violation)
                break
        else:
            kept.append(violation)

    if full_registry:
        try:
            allow_rel = allow_path.relative_to(root).as_posix()
        except ValueError:
            allow_rel = str(allow_path)
        for entry in entries:
            if entry.key not in used:
                kept.append(Violation(
                    rule=STALE_RULE, path=allow_rel, line=entry.line,
                    qualname=entry.key,
                    message=(f"stale allowlist entry {entry.key!r}: it no "
                             f"longer suppresses any violation"),
                    hint="delete the entry; the code it excused is fixed "
                         "or gone"))

    kept.sort(key=lambda v: (v.path, v.line, v.rule))
    return LintReport(root=str(root), rules=[r.id for r in active],
                      files_scanned=run.files_scanned,
                      violations=kept, suppressed=suppressed)


def _module_of_key(violation: Violation) -> str:
    """Allowlist key granularity: the violation's defining module."""
    # qualname is module + scopes; the module part is everything up to the
    # first scope that starts a class/function.  We cannot recover the
    # split exactly from the string, so offer the conservative choice:
    # trim trailing scope components one at a time is ambiguous -- instead
    # use the path, which *is* the module.
    module = violation.path
    if module.startswith("src/"):
        module = module[len("src/"):]
    module = module[:-3] if module.endswith(".py") else module
    module = module.replace("/", ".")
    if module.endswith(".__init__"):
        module = module[:-len(".__init__")]
    return f"{violation.rule}:{module}"


def repo_root() -> Path:
    """The repository root this package was imported from."""
    return Path(__file__).resolve().parents[3]
