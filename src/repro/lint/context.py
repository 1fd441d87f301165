"""Per-file analysis context shared by every rule.

Builds the parsed tree, the import alias maps used to resolve dotted
call targets (``from time import perf_counter as pc`` -> ``pc()`` is
``time.perf_counter``), and the package classification that scopes the
seeded-path rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.lint.findings import Finding

if TYPE_CHECKING:
    from repro.lint.callgraph import ProjectContext

__all__ = [
    "DETERMINISTIC_MODULE_PREFIXES",
    "ENTROPY_SOURCES",
    "FileContext",
    "SEEDED_MODULE_PREFIXES",
    "dotted_name",
]

#: Module prefixes whose code runs inside seeded, order-sensitive
#: pipeline stages.  DET003 (unordered iteration) applies only here;
#: DET001/DET002 apply everywhere because wall-clock and global RNG are
#: never legitimate outside an explicitly pragma-annotated boundary.
SEEDED_MODULE_PREFIXES = (
    "repro.core",
    "repro.traces",
    "repro.stats",
    "repro.loadgen.generator",
    "repro.loadgen.arrivals",
)

#: Module prefixes whose outputs must be pure functions of
#: ``(inputs, seed)`` -- the *sinks* of the interprocedural taint rule
#: (DET005).  Superset of the seeded stages: the simulator engines and
#: their policies, the content cache, the shard planner, and the worker
#: shards of the load service all promise byte-identical reruns, so a
#: wall-clock value reaching them through a helper is a contract
#: violation even when the helper itself carries a legitimate pragma.
DETERMINISTIC_MODULE_PREFIXES = SEEDED_MODULE_PREFIXES + (
    "repro.platform.simulator",
    "repro.platform.simulator_vec",
    "repro.platform.simcore",
    "repro.platform.schedulers",
    "repro.platform.keepalive",
    "repro.platform.autoscaler",
    "repro.platform.faults",
    "repro.platform.diffsim",
    "repro.cache",
    "repro.parallel",
    "repro.loadgen.service",
)


#: Call targets whose value is wall-clock time or OS entropy.  DET001
#: flags direct calls; DET005 uses them as the roots of its
#: interprocedural taint analysis.
ENTROPY_SOURCES = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
})


def _module_name(path: Path) -> str:
    """Best-effort dotted module name from a file path (``src`` layout)."""
    parts = list(path.resolve().parts)
    for anchor in ("repro", "src"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            if anchor == "src":
                idx += 1
            parts = parts[idx:]
            break
    else:
        parts = parts[-1:]
    if not parts:
        return path.stem
    parts[-1] = Path(parts[-1]).stem
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass
class FileContext:
    """Everything a rule needs to analyse one source file."""

    path: Path
    source: str
    tree: ast.Module
    module: str = ""
    #: ``import numpy as np`` -> {"np": "numpy"}
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: ``from time import perf_counter as pc`` -> {"pc": "time.perf_counter"}
    name_aliases: dict[str, str] = field(default_factory=dict)
    #: Whole-program view; set by the engine after all files are parsed
    #: (``None`` only while a context is being constructed).
    project: ProjectContext | None = field(default=None, repr=False)

    @classmethod
    def parse(cls, path: Path, source: str | None = None) -> FileContext:
        text = path.read_text() if source is None else source
        tree = ast.parse(text, filename=str(path))
        ctx = cls(path=path, source=text, tree=tree, module=_module_name(path))
        ctx._collect_imports()
        return ctx

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.module_aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.name_aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    @property
    def in_seeded_package(self) -> bool:
        return self.module.startswith(SEEDED_MODULE_PREFIXES)

    @property
    def in_deterministic_scope(self) -> bool:
        return self.module.startswith(DETERMINISTIC_MODULE_PREFIXES)

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.expr) -> str | None:
        """Resolve an expression to its imported dotted name, if any.

        ``np.random.seed`` resolves to ``numpy.random.seed`` under
        ``import numpy as np``; a bare ``perf_counter`` resolves to
        ``time.perf_counter`` under ``from time import perf_counter``.
        Returns ``None`` for expressions that do not root in an import
        (locals, attribute chains off call results, ...).
        """
        parts = dotted_name(node)
        if not parts:
            return None
        head, rest = parts[0], parts[1:]
        if head in self.name_aliases:
            base = self.name_aliases[head]
        elif head in self.module_aliases:
            base = self.module_aliases[head]
        else:
            return None
        return ".".join([base, *rest])

    def finding(self, rule: str, slug: str, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            path=str(self.path),
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            slug=slug,
            message=message,
            end_line=getattr(node, "end_lineno", None)
            or getattr(node, "lineno", 0),
        )


def dotted_name(node: ast.expr) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; ``[]`` for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []
