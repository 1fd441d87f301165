"""repro-lint: whole-program determinism & cache-safety analyzer.

The pipeline's correctness contract -- ``jobs=N`` byte-identical to
sequential, cache hit identical to miss, telemetry on identical to off
-- rests on source-level conventions (RNG discipline, no wall-clock in
seeded stages, complete cache fingerprints, fork-safe workers).  This
package turns those conventions into machine-checked rules over the
stdlib ``ast``:

==========  ====================  ==========================================
Rule ID     Slug                  Invariant enforced
==========  ====================  ==========================================
DET001      wall-clock            no wall-clock / entropy sources
DET002      global-rng            no legacy or global RNG state
DET003      unordered-iter        no set/``dict.keys()`` iteration in
                                  seeded packages
DET005      interproc-entropy     no calls whose *transitive* return value
                                  derives from entropy, in seeded stages
DET006      builtin-hash          no builtin ``hash()`` (salted per
                                  process) in deterministic modules
CACHE001    fingerprint           cache fingerprints cover every
                                  output-affecting parameter
CONC001     fork-unsafe-global    no module-global mutation reachable from
                                  a ``Process(target=...)`` entry point
CONC002     unpicklable-ipc       no lambdas / nested functions / open
                                  handles into ``Process`` or pipe sends
PAR001      scalar-bulk-parity    scalar/bulk method pairs must be pinned
                                  by the differential parity harness
TEL001      telemetry-hot-loop    no per-iteration telemetry lookups in
                                  loops
GEN001      float-eq              no ``==`` / ``!=`` against float literals
GEN002      mutable-default       no mutable default argument values
GEN003      bare-except           no bare ``except:`` clauses
==========  ====================  ==========================================

``DET005``, ``CONC001``, ``CONC002`` and ``PAR001`` are interprocedural:
:func:`lint_paths` builds a project-wide symbol table and call graph
(:mod:`repro.lint.callgraph`) before rules run, so taint and
reachability follow calls across files.  Intentional violations carry an
inline pragma on the offending line (or the line directly above)::

    t0 = time.perf_counter()  # repro: allow-wall-clock

Pragmas accept the rule ID (``allow-det001``) or slug
(``allow-wall-clock``), comma-separated for multiple rules; pragmas that
no longer suppress anything are themselves flagged under
``--check-pragmas``.  See ``docs/DETERMINISM.md`` for the full
catalogue, the taint model, and the incremental-cache semantics.
"""

from __future__ import annotations

from repro.lint.engine import LintResult, Rule, all_rules, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.incremental import IncrementalStats, lint_paths_incremental
from repro.lint.pragmas import pragma_lines, pragma_records
from repro.lint.reporters import render_console, render_json, render_sarif

__all__ = [
    "Finding",
    "IncrementalStats",
    "LintResult",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_paths_incremental",
    "lint_source",
    "pragma_lines",
    "pragma_records",
    "render_console",
    "render_json",
    "render_sarif",
]
