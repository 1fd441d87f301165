"""repro-lint: fixture-driven rule tests, pragma behavior, reporters,
and the self-check that keeps ``src/repro`` clean.

Each rule ID gets at least one *bad* fixture proving it detects its
hazard and one *good* fixture proving the compliant idiom passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    all_rules,
    lint_paths,
    lint_source,
    pragma_lines,
    render_console,
    render_json,
)
from repro.lint.cli import main as lint_main
from repro.lint.reporters import JSON_SCHEMA_VERSION, SARIF_VERSION, render_sarif

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Module path that places a fixture inside a seeded stage package
#: (DET003 is scoped to those).
SEEDED_PATH = "src/repro/core/fixture_mod.py"
UNSEEDED_PATH = "src/repro/platform/fixture_mod.py"
#: Module path inside the load-generator package (DET004 is scoped there).
LOADGEN_PATH = "src/repro/loadgen/fixture_mod.py"


def rules_of(snippet: str, *, path: str = SEEDED_PATH) -> set[str]:
    result = lint_source(snippet, path)
    return {f.rule for f in result.unsuppressed}


# ---------------------------------------------------------------------------
# fixture pairs: (rule, bad snippet, good snippet)
# ---------------------------------------------------------------------------
FIXTURES = [
    (
        "DET001",
        "import time\n\ndef f():\n    return time.time()\n",
        "def f(now_s: float) -> float:\n    return now_s\n",
    ),
    (
        "DET001",
        "from time import perf_counter as pc\n\ndef f():\n    return pc()\n",
        "import numpy as np\n\ndef f(rng: np.random.Generator):\n"
        "    return rng.random()\n",
    ),
    (
        "DET001",
        "from datetime import datetime\n\ndef f():\n"
        "    return datetime.now()\n",
        "from datetime import datetime\n\ndef f(stamp: datetime):\n"
        "    return stamp\n",
    ),
    (
        "DET001",
        "import os\n\ndef f():\n    return os.urandom(8)\n",
        "import os\n\ndef f():\n    return os.cpu_count()\n",
    ),
    (
        "DET002",
        "import numpy as np\n\ndef f():\n    return np.random.normal()\n",
        "import numpy as np\n\ndef f(rng: np.random.Generator):\n"
        "    return rng.normal()\n",
    ),
    (
        "DET002",
        "import numpy as np\n\ndef f():\n    np.random.seed(0)\n",
        "import numpy as np\n\ndef f():\n"
        "    return np.random.default_rng(0)\n",
    ),
    (
        "DET002",
        "import random\n\ndef f():\n    return random.random()\n",
        "import numpy as np\n\ndef f():\n"
        "    return np.random.default_rng(1).random()\n",
    ),
    (
        "DET002",
        "from random import shuffle\n",
        "from numpy.random import default_rng\n",
    ),
    (
        "DET003",
        "def f(items):\n    out = []\n"
        "    for x in set(items):\n        out.append(x)\n    return out\n",
        "def f(items):\n    out = []\n"
        "    for x in sorted(set(items)):\n"
        "        out.append(x)\n    return out\n",
    ),
    (
        "DET003",
        "def f(d):\n    return [v for v in {1, 2, 3}]\n",
        "def f(d):\n    return [v for v in sorted({1, 2, 3})]\n",
    ),
    (
        "DET003",
        "def f(d):\n    return list(d.keys() | {1})\n",
        "def f(d):\n    return sorted(d.keys() | {1})\n",
    ),
    (
        "CACHE001",
        "from repro.cache import fingerprint\n\n"
        "def stage(trace, mode, seed, cache):\n"
        "    key = fingerprint('stage', trace, seed)\n"
        "    return cache.memoize(key, lambda: trace)\n",
        "from repro.cache import fingerprint\n\n"
        "def stage(trace, mode, seed, cache):\n"
        "    key = fingerprint('stage', trace, mode, seed)\n"
        "    return cache.memoize(key, lambda: trace)\n",
    ),
    (
        "CACHE001",
        # Derived locals do NOT launder a missing parameter ...
        "from repro.cache import fingerprint\n\n"
        "def stage(trace, shards):\n"
        "    n = 4\n"
        "    return fingerprint('stage', trace, n)\n",
        # ... but they do carry coverage when derived FROM the parameter.
        "from repro.cache import fingerprint\n\n"
        "def stage(trace, shards):\n"
        "    n = shards if shards is not None else 4\n"
        "    return fingerprint('stage', trace, n)\n",
    ),
    (
        "TEL001",
        "def f(reg, xs):\n    for x in xs:\n"
        "        reg.counter('n', 'help').inc()\n",
        "def f(reg, xs):\n    ctr = reg.counter('n', 'help')\n"
        "    for x in xs:\n        ctr.inc()\n",
    ),
    (
        "TEL001",
        "from repro.telemetry import registry\n\n"
        "def f(xs):\n    for x in xs:\n"
        "        if registry.active() is not None:\n            pass\n",
        "from repro.telemetry import registry\n\n"
        "def f(xs):\n    reg = registry.active()\n"
        "    for x in xs:\n        if reg is not None:\n            pass\n",
    ),
    (
        "GEN001",
        "def f(x):\n    return x == 0.3\n",
        "import math\n\ndef f(x):\n    return math.isclose(x, 0.3)\n",
    ),
    (
        "GEN001",
        "def f(x):\n    return 1.5 != x\n",
        "def f(x):\n    return x == 0.0\n",  # exact-zero guard is allowed
    ),
    (
        "GEN002",
        "def f(x, acc=[]):\n    acc.append(x)\n    return acc\n",
        "def f(x, acc=None):\n    acc = [] if acc is None else acc\n"
        "    acc.append(x)\n    return acc\n",
    ),
    (
        "GEN002",
        "def f(x, opts=dict()):\n    return opts\n",
        "def f(x, opts=()):\n    return opts\n",
    ),
    (
        "GEN003",
        "def f():\n    try:\n        return 1\n"
        "    except:\n        return 2\n",
        "def f():\n    try:\n        return 1\n"
        "    except Exception:\n        return 2\n",
    ),
    (
        "DET006",
        "def f(w, n):\n    return hash(w) % n\n",
        "import zlib\n\ndef f(w, n):\n    return zlib.crc32(w.encode()) % n\n",
    ),
]

#: DET004 only fires for modules under ``repro.loadgen``, so its fixtures
#: run at LOADGEN_PATH rather than SEEDED_PATH.
LOADGEN_FIXTURES = [
    (
        "DET004",
        # sleeping for the previous response's latency: closed-loop
        "import time\n\n"
        "def replay(reqs, backend):\n"
        "    for r in reqs:\n"
        "        latency_s = backend.invoke(r)\n"
        "        time.sleep(latency_s)\n",
        # pacing toward an absolute schedule target: open-loop
        "import time\n\n"
        "def replay(reqs, backend, epoch, speed):\n"
        "    for ts, wid in reqs:\n"
        "        delay = epoch + ts / speed - time.monotonic()\n"
        "        if delay > 0:\n"
        "            time.sleep(delay)\n"
        "        backend.invoke(wid)\n",
    ),
    (
        "DET004",
        # one level of local dataflow still counts as completion-derived
        "import time\n\n"
        "def replay(reqs, backend):\n"
        "    for r in reqs:\n"
        "        elapsed = backend.invoke(r)\n"
        "        pause = elapsed * 0.5\n"
        "        time.sleep(pause)\n",
        # retry backoff keyed on the attempt counter is fine
        "import time\n\n"
        "def retry_pause(attempt):\n"
        "    backoff_s = 0.1 * 2 ** attempt\n"
        "    time.sleep(backoff_s)\n",
    ),
]


#: Whole-program rule fixtures: (rule, path, bad, good).  Paths pick the
#: module scope each rule applies to (DET005 needs a deterministic-scope
#: module; PAR001 needs a ``repro.*`` module).
INTERPROC_FIXTURES = [
    (
        "DET005",
        SEEDED_PATH,
        # the helper's pragma legitimises ITS boundary; the deterministic
        # caller consuming the returned wall-clock value is the bug
        "import time\n\n"
        "def _now():\n"
        "    return time.time()  # repro: allow-wall-clock\n\n"
        "def admit(job):\n"
        "    deadline = _now() + 5.0\n"
        "    return deadline\n",
        "def admit(job, now_s: float):\n"
        "    return now_s + 5.0\n",
    ),
    (
        "DET005",
        SEEDED_PATH,
        # two hops: unseeded OS-entropy rng laundered through a chain
        "import numpy as np\n\n"
        "def _fresh():\n"
        "    return np.random.default_rng()\n\n"
        "def _stream():\n"
        "    rng = _fresh()\n"
        "    return rng\n\n"
        "def draw(n):\n"
        "    return _stream().random(n)\n",
        "import numpy as np\n\n"
        "def make_rng(seed: int):\n"
        "    return np.random.default_rng(seed)\n\n"
        "def draw(seed, n):\n"
        "    return make_rng(seed).random(n)\n",
    ),
    (
        "CONC001",
        UNSEEDED_PATH,
        "import multiprocessing as mp\n\n"
        "_RESULTS = []\n\n"
        "def _worker(idx):\n"
        "    _RESULTS.append(idx)\n\n"
        "def launch():\n"
        "    p = mp.Process(target=_worker, args=(0,))\n"
        "    p.start()\n"
        "    return p\n",
        "import multiprocessing as mp\n\n"
        "def _worker(conn, idx):\n"
        "    results = []\n"
        "    results.append(idx)\n"
        "    conn.send(tuple(results))\n\n"
        "def launch(conn):\n"
        "    p = mp.Process(target=_worker, args=(conn, 0))\n"
        "    p.start()\n"
        "    return p\n",
    ),
    (
        "CONC001",
        UNSEEDED_PATH,
        "import multiprocessing as mp\n\n"
        "_EPOCH = 0.0\n\n"
        "def _worker():\n"
        "    global _EPOCH\n"
        "    _EPOCH = 1.0\n\n"
        "def launch():\n"
        "    return mp.Process(target=_worker)\n",
        "import multiprocessing as mp\n\n"
        "def _worker(q):\n"
        "    q.put(1.0)\n\n"
        "def launch(q):\n"
        "    return mp.Process(target=_worker, args=(q,))\n",
    ),
    (
        "CONC002",
        UNSEEDED_PATH,
        "import multiprocessing as mp\n\n"
        "def launch():\n"
        "    return mp.Process(target=lambda: None)\n",
        "import multiprocessing as mp\n\n"
        "def _worker():\n"
        "    return None\n\n"
        "def launch():\n"
        "    return mp.Process(target=_worker)\n",
    ),
    (
        "CONC002",
        UNSEEDED_PATH,
        # nested def as target + open handle through the pipe
        "import multiprocessing as mp\n\n"
        "def launch(conn, path):\n"
        "    def _inner():\n"
        "        return None\n"
        "    conn.send(open(path))\n"
        "    return mp.Process(target=_inner)\n",
        "import multiprocessing as mp\n\n"
        "def _worker(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n\n"
        "def launch(conn, path):\n"
        "    conn.send(path)\n"
        "    return mp.Process(target=_worker, args=(path,))\n",
    ),
    (
        "PAR001",
        UNSEEDED_PATH,
        "class ShadowPool:\n"
        "    def pick(self, nodes, rng):\n"
        "        return nodes[0]\n\n"
        "    def pick_many(self, nodes, rng, n):\n"
        "        return [nodes[0]] * n\n",
        # Protocol declarations describe the pair, they don't implement it
        "from typing import Protocol\n\n"
        "class PoolPolicy(Protocol):\n"
        "    def pick(self, nodes, rng): ...\n\n"
        "    def pick_many(self, nodes, rng, n): ...\n",
    ),
    (
        "PAR001",
        UNSEEDED_PATH,
        "class MirrorBackend:\n"
        "    def invoke(self, ts, wid):\n"
        "        return None\n\n"
        "    def invoke_many(self, ts, wids):\n"
        "        for t, w in zip(ts, wids):\n"
        "            self.invoke(t, w)\n",
        # scalar-only classes have no parity obligation
        "class ScalarBackend:\n"
        "    def invoke(self, ts, wid):\n"
        "        return None\n",
    ),
]


@pytest.mark.parametrize(
    "rule,bad,good",
    FIXTURES,
    ids=[f"{r}-{i}" for i, (r, _, _) in enumerate(FIXTURES)],
)
def test_rule_detects_bad_and_passes_good(rule, bad, good):
    assert rule in rules_of(bad), f"{rule} missed its hazard fixture"
    assert rule not in rules_of(good), f"{rule} false-positive on good fixture"


@pytest.mark.parametrize(
    "rule,bad,good",
    LOADGEN_FIXTURES,
    ids=[f"{r}-{i}" for i, (r, _, _) in enumerate(LOADGEN_FIXTURES)],
)
def test_loadgen_rule_detects_bad_and_passes_good(rule, bad, good):
    assert rule in rules_of(bad, path=LOADGEN_PATH), \
        f"{rule} missed its hazard fixture"
    assert rule not in rules_of(good, path=LOADGEN_PATH), \
        f"{rule} false-positive on good fixture"


@pytest.mark.parametrize(
    "rule,path,bad,good",
    INTERPROC_FIXTURES,
    ids=[f"{r}-{i}" for i, (r, _, _, _) in enumerate(INTERPROC_FIXTURES)],
)
def test_interproc_rule_detects_bad_and_passes_good(rule, path, bad, good):
    assert rule in rules_of(bad, path=path), \
        f"{rule} missed its hazard fixture"
    assert rule not in rules_of(good, path=path), \
        f"{rule} false-positive on good fixture"


def test_every_rule_id_has_a_failing_fixture():
    covered = {rule for rule, _, _ in FIXTURES}
    covered |= {rule for rule, _, _ in LOADGEN_FIXTURES}
    covered |= {rule for rule, _, _, _ in INTERPROC_FIXTURES}
    assert covered == {r.rule_id for r in all_rules()}


def test_det004_scoped_to_loadgen():
    snippet = (
        "import time\n\n"
        "def f(backend):\n"
        "    rtt = backend.ping()\n"
        "    time.sleep(rtt)\n"
    )
    assert "DET004" in rules_of(snippet, path=LOADGEN_PATH)
    assert "DET004" not in rules_of(snippet, path=SEEDED_PATH)
    assert "DET004" not in rules_of(snippet, path=UNSEEDED_PATH)


def test_det004_pragma_suppresses():
    snippet = (
        "import time\n\n"
        "def f(backend):\n"
        "    rtt = backend.ping()\n"
        "    time.sleep(rtt)  # repro: allow-closed-loop-pacing\n"
    )
    result = lint_source(snippet, LOADGEN_PATH)
    assert "DET004" not in {f.rule for f in result.unsuppressed}
    assert "DET004" in {f.rule for f in result.suppressed}


def test_det003_scoped_to_seeded_packages():
    snippet = "def f(items):\n    return [x for x in set(items)]\n"
    assert "DET003" in rules_of(snippet, path=SEEDED_PATH)
    assert "DET003" not in rules_of(snippet, path=UNSEEDED_PATH)


def test_det001_applies_outside_seeded_packages_too():
    snippet = "import time\n\ndef f():\n    return time.time()\n"
    assert "DET001" in rules_of(snippet, path=UNSEEDED_PATH)


def test_cache001_exempts_execution_knobs_and_callables():
    snippet = (
        "from typing import Callable\n"
        "from repro.cache import fingerprint\n\n"
        "def stage(trace, builder: Callable[[], object], cache, jobs=None):\n"
        "    return fingerprint('stage', trace)\n"
    )
    assert "CACHE001" not in rules_of(snippet)


# ---------------------------------------------------------------------------
# pragmas
# ---------------------------------------------------------------------------
def test_pragma_suppresses_on_same_line():
    snippet = (
        "import time\n\n"
        "def f():\n"
        "    return time.time()  # repro: allow-wall-clock\n"
    )
    result = lint_source(snippet, SEEDED_PATH)
    assert not result.unsuppressed
    assert [f.rule for f in result.suppressed] == ["DET001"]


def test_pragma_accepts_rule_id_spelling():
    snippet = (
        "import time\n\n"
        "def f():\n"
        "    return time.time()  # repro: allow-det001\n"
    )
    assert not lint_source(snippet, SEEDED_PATH).unsuppressed


def test_standalone_pragma_covers_following_code_line():
    snippet = (
        "import time\n\n"
        "def f():\n"
        "    # repro: allow-wall-clock\n"
        "    # the pacer genuinely needs real time here\n"
        "    return time.time()\n"
    )
    assert not lint_source(snippet, SEEDED_PATH).unsuppressed


def test_pragma_for_wrong_rule_does_not_suppress():
    snippet = (
        "import time\n\n"
        "def f():\n"
        "    return time.time()  # repro: allow-float-eq\n"
    )
    assert [f.rule for f in lint_source(snippet, SEEDED_PATH).unsuppressed] \
        == ["DET001"]


def test_pragma_multiple_rules_comma_separated():
    snippet = (
        "import time\n\n"
        "def f(x):\n"
        "    # repro: allow-wall-clock, allow-float-eq\n"
        "    return time.time() if x == 0.5 else 0.0\n"
    )
    assert not lint_source(snippet, SEEDED_PATH).unsuppressed


def test_pragma_inside_string_literal_is_ignored():
    snippet = (
        "import time\n\n"
        "def f():\n"
        "    s = '# repro: allow-wall-clock'\n"
        "    return time.time(), s\n"
    )
    assert [f.rule for f in lint_source(snippet, SEEDED_PATH).unsuppressed] \
        == ["DET001"]


def test_pragma_lines_maps_tokens():
    allowed = pragma_lines("x = 1  # repro: allow-det001\n")
    assert allowed == {1: {"det001"}}


# ---------------------------------------------------------------------------
# engine / selection
# ---------------------------------------------------------------------------
def test_unknown_rule_selector_raises():
    with pytest.raises(ValueError, match="unknown rule selector"):
        all_rules(select=["nope999"])


def test_selection_by_slug_and_id():
    assert [r.rule_id for r in all_rules(select=["wall-clock"])] == ["DET001"]
    assert [r.rule_id for r in all_rules(select=["GEN002"])] == ["GEN002"]


def test_syntax_error_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = lint_paths([bad])
    assert not result.ok
    assert result.parse_errors and result.parse_errors[0].rule == "PARSE"


def test_findings_sorted_and_deduped():
    snippet = (
        "import time\n\n"
        "def f():\n"
        "    b = time.time()\n"
        "    a = time.time()\n"
    )
    result = lint_source(snippet, SEEDED_PATH)
    lines = [f.line for f in result.findings]
    assert lines == sorted(lines) and len(set(lines)) == len(lines)


# ---------------------------------------------------------------------------
# reporters
# ---------------------------------------------------------------------------
def _sample_result():
    return lint_source(
        "import time\n\n"
        "def f():\n"
        "    ok = time.time()  # repro: allow-wall-clock\n"
        "    return time.time()\n",
        SEEDED_PATH,
    )


def test_json_reporter_schema():
    payload = json.loads(render_json(_sample_result()))
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert set(payload) == {
        "schema_version", "files_checked", "ok", "findings",
        "parse_errors", "suppressed_count", "summary",
    }
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert payload["suppressed_count"] == 1
    assert payload["summary"] == {"DET001": 1}
    kinds = {
        (f["rule"], f["suppressed"]) for f in payload["findings"]
    }
    assert kinds == {("DET001", True), ("DET001", False)}
    for f in payload["findings"]:
        assert set(f) == {"rule", "slug", "path", "line", "col",
                          "message", "suppressed"}


def test_console_reporter_mentions_rule_and_location():
    text = render_console(_sample_result())
    assert "DET001" in text and ":5:" in text
    assert "suppressed" in text
    # suppressed findings hidden by default, shown on request
    assert "(suppressed)" not in text
    shown = render_console(_sample_result(), show_suppressed=True)
    assert "(suppressed)" in shown


def test_finding_str_format():
    f = Finding(path="a.py", line=3, col=1, rule="DET001",
                slug="wall-clock", message="boom")
    assert str(f) == "a.py:3:1: DET001 [wall-clock] boom"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x):\n    return x\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\ndef f():\n    return time.time()\n")

    assert lint_main([str(clean)]) == 0
    assert lint_main([str(dirty)]) == 1
    assert lint_main(["--select", "bogus", str(clean)]) == 2
    capsys.readouterr()


def test_cli_json_output(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\ndef f():\n    return time.time()\n")
    code = lint_main(["--format", "json", str(dirty)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["summary"] == {"DET001": 1}


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.rule_id in out


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------
def _build_tree(tmp_path, files):
    from repro.lint.callgraph import build_project
    from repro.lint.context import FileContext

    paths = []
    for rel, src in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(src)
        paths.append(p)
    contexts = [FileContext.parse(p) for p in sorted(paths)]
    return build_project(contexts)


def test_callgraph_resolves_aliased_imports(tmp_path):
    project = _build_tree(tmp_path, {
        "src/repro/alpha.py": (
            "import time\n\n"
            "def helper():\n"
            "    return time.time()  # repro: allow-wall-clock\n"
        ),
        "src/repro/beta.py": (
            "from repro.alpha import helper as h\n"
            "import repro.alpha as alpha_mod\n\n"
            "def via_name():\n"
            "    return h()\n\n"
            "def via_module():\n"
            "    return alpha_mod.helper()\n"
        ),
    })
    for fn in ("repro.beta.via_name", "repro.beta.via_module"):
        assert [s.target for s in project.functions[fn].calls] \
            == ["repro.alpha.helper"]
    # taint crosses the module boundary through both alias forms
    tainted = project.returns_tainted
    assert "repro.alpha.helper" in tainted
    assert "repro.beta.via_name" in tainted
    assert "repro.beta.via_module" in tainted


def test_callgraph_resolves_methods_through_project_bases(tmp_path):
    project = _build_tree(tmp_path, {
        "src/repro/gamma.py": (
            "class Base:\n"
            "    def step(self):\n"
            "        return 1\n\n"
            "class Child(Base):\n"
            "    def run(self):\n"
            "        return self.step()\n"
        ),
    })
    calls = project.functions["repro.gamma.Child.run"].calls
    assert [s.target for s in calls] == ["repro.gamma.Base.step"]
    assert project.resolve_method("repro.gamma.Child", "step") \
        == "repro.gamma.Base.step"
    assert project.resolve_method("repro.gamma.Child", "missing") is None


def test_callgraph_import_cycle_terminates_and_propagates(tmp_path):
    project = _build_tree(tmp_path, {
        "src/repro/cyc_a.py": (
            "from repro.cyc_b import pong\n\n"
            "def ping():\n"
            "    return pong()\n"
        ),
        "src/repro/cyc_b.py": (
            "import time\n"
            "from repro.cyc_a import ping\n\n"
            "def pong():\n"
            "    return time.time()  # repro: allow-wall-clock\n\n"
            "def loop():\n"
            "    return ping()\n"
        ),
    })
    tainted = project.returns_tainted  # must not hang on the cycle
    assert {"repro.cyc_b.pong", "repro.cyc_a.ping",
            "repro.cyc_b.loop"} <= set(tainted)


def test_callgraph_base_class_cycle_is_guarded(tmp_path):
    # pathological (would not import), but resolution must not recurse
    project = _build_tree(tmp_path, {
        "src/repro/ouro.py": (
            "class A(B):\n"
            "    pass\n\n"
            "class B(A):\n"
            "    def m(self):\n"
            "        return 1\n"
        ),
    })
    assert project.resolve_method("repro.ouro.A", "m") == "repro.ouro.B.m"
    assert project.resolve_method("repro.ouro.A", "nope") is None


def test_worker_reachability_closure(tmp_path):
    project = _build_tree(tmp_path, {
        "src/repro/workers.py": (
            "import multiprocessing as mp\n\n"
            "def _leaf():\n"
            "    return 1\n\n"
            "def _entry(conn):\n"
            "    return _leaf()\n\n"
            "def bystander():\n"
            "    return 2\n\n"
            "def launch(conn):\n"
            "    return mp.Process(target=_entry, args=(conn,))\n"
        ),
    })
    assert [f.qualname for f in project.worker_entry_points] \
        == ["repro.workers._entry"]
    assert project.worker_reachable \
        == {"repro.workers._entry", "repro.workers._leaf"}


def test_par001_harness_registration_lifts_finding(tmp_path):
    pool = (
        "class EnginePool:\n"
        "    def pick(self, nodes, rng):\n"
        "        return nodes[0]\n\n"
        "    def pick_many(self, nodes, rng, n):\n"
        "        return [nodes[0]] * n\n"
    )
    src = tmp_path / "src" / "repro" / "platform" / "mypool.py"
    src.parent.mkdir(parents=True)
    src.write_text(pool)
    harness = tmp_path / "tests" / "test_simulator_equivalence.py"
    harness.parent.mkdir(parents=True)
    harness.write_text(
        "from repro.platform.mypool import EnginePool\n\n"
        "def test_parity():\n"
        "    assert EnginePool\n"
    )
    registered = lint_paths([tmp_path / "src"])
    assert "PAR001" not in {f.rule for f in registered.unsuppressed}
    harness.unlink()
    unregistered = lint_paths([tmp_path / "src"])
    assert "PAR001" in {f.rule for f in unregistered.unsuppressed}


# ---------------------------------------------------------------------------
# incremental driver
# ---------------------------------------------------------------------------
def _incremental_tree(tmp_path):
    files = {
        "src/repro/ia.py": "def base(x):\n    return x + 1\n",
        "src/repro/ib.py": (
            "from repro.ia import base\n\n"
            "def mid(x):\n    return base(x) * 2\n"
        ),
        "src/repro/ic.py": (
            "from repro.ib import mid\n\n"
            "def top(x):\n    return mid(x) - 3\n"
        ),
    }
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    return tmp_path / "src"


def _incremental(paths, cache_dir, **kwargs):
    from repro.cache import ContentCache
    from repro.lint.incremental import lint_paths_incremental

    return lint_paths_incremental(paths, ContentCache(cache_dir), **kwargs)


def test_incremental_warm_run_reanalyzes_nothing(tmp_path):
    src = _incremental_tree(tmp_path)
    cold, cold_stats = _incremental([src], tmp_path / "cache")
    assert cold_stats.reused == 0
    assert len(cold_stats.reanalyzed) == 3
    warm, warm_stats = _incremental([src], tmp_path / "cache")
    assert warm_stats.reanalyzed == []
    assert warm_stats.reused == 3
    assert warm.findings == cold.findings
    assert warm.files_checked == cold.files_checked == 3


def test_incremental_matches_cold_lint_results(tmp_path):
    bad = tmp_path / "src" / "repro" / "core" / "gen.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    cold = lint_paths([tmp_path / "src"])
    inc, _ = _incremental([tmp_path / "src"], tmp_path / "cache")
    inc2, stats = _incremental([tmp_path / "src"], tmp_path / "cache")
    assert stats.reanalyzed == []
    assert inc.findings == cold.findings == inc2.findings
    assert not cold.ok


def test_incremental_edit_invalidates_import_closure_dependents(tmp_path):
    src = _incremental_tree(tmp_path)
    _incremental([src], tmp_path / "cache")

    # editing the root of the import chain invalidates every dependent
    ia = src / "repro" / "ia.py"
    ia.write_text(ia.read_text() + "\n# touched\n")
    _, stats = _incremental([src], tmp_path / "cache")
    assert sorted(p.name for p in stats.reanalyzed) \
        == ["ia.py", "ib.py", "ic.py"]

    # editing the leaf invalidates exactly the leaf
    ic = src / "repro" / "ic.py"
    ic.write_text(ic.read_text() + "\n# touched\n")
    _, stats = _incremental([src], tmp_path / "cache")
    assert [p.name for p in stats.reanalyzed] == ["ic.py"]

    # and the tree is warm again afterwards
    _, stats = _incremental([src], tmp_path / "cache")
    assert stats.reanalyzed == []


def test_incremental_mid_chain_edit_spares_the_root(tmp_path):
    src = _incremental_tree(tmp_path)
    _incremental([src], tmp_path / "cache")
    ib = src / "repro" / "ib.py"
    ib.write_text(ib.read_text() + "\n# touched\n")
    _, stats = _incremental([src], tmp_path / "cache")
    assert sorted(p.name for p in stats.reanalyzed) == ["ib.py", "ic.py"]


def test_incremental_rule_selection_keys_separately(tmp_path):
    src = _incremental_tree(tmp_path)
    _, first = _incremental([src], tmp_path / "cache", select=["det001"])
    assert len(first.reanalyzed) == 3
    # a different selection must not serve the det001-only results
    _, second = _incremental([src], tmp_path / "cache")
    assert len(second.reanalyzed) == 3
    _, warm = _incremental([src], tmp_path / "cache", select=["det001"])
    assert warm.reanalyzed == []


# ---------------------------------------------------------------------------
# dead pragmas & decorator coverage
# ---------------------------------------------------------------------------
def test_dead_pragma_reported_with_check_pragmas():
    snippet = (
        "import time\n\n"
        "x = 1  # repro: allow-wall-clock\n\n"
        "def f():\n"
        "    return time.time()  # repro: allow-wall-clock\n"
    )
    result = lint_source(snippet, SEEDED_PATH, check_pragmas=True)
    dead = [f for f in result.unsuppressed if f.rule == "PRAGMA001"]
    assert [f.line for f in dead] == [3]
    # the live pragma on line 6 is not flagged
    assert {f.rule for f in result.suppressed} == {"DET001"}


def test_dead_pragma_silent_without_check_pragmas():
    result = lint_source("x = 1  # repro: allow-wall-clock\n", SEEDED_PATH)
    assert result.ok


def test_standalone_pragma_covers_decorator_lines():
    # DET001 fires inside a multi-line decorator call; the pragma block
    # above the decorated function must reach it
    snippet = (
        "import time\n\n"
        "# repro: allow-wall-clock\n"
        "@_register(\n"
        "    time.time(),\n"
        ")\n"
        "def f():\n"
        "    return 0\n"
    )
    result = lint_source(snippet, SEEDED_PATH)
    assert not result.unsuppressed
    assert [f.rule for f in result.suppressed] == ["DET001"]


def test_standalone_pragma_reaches_def_past_decorators():
    snippet = (
        "# repro: allow-mutable-default\n"
        "@_noop\n"
        "@_other\n"
        "def f(acc=[]):\n"
        "    return acc\n"
    )
    result = lint_source(snippet, SEEDED_PATH)
    assert not result.unsuppressed
    assert [f.rule for f in result.suppressed] == ["GEN002"]


def test_pragma_coverage_stops_at_first_code_line():
    snippet = (
        "import time\n\n"
        "# repro: allow-wall-clock\n"
        "a = time.time()\n"
        "b = time.time()\n"
    )
    result = lint_source(snippet, SEEDED_PATH)
    assert [f.line for f in result.unsuppressed] == [5]


# ---------------------------------------------------------------------------
# SARIF reporter
# ---------------------------------------------------------------------------
def test_sarif_reporter_structure():
    log = json.loads(render_sarif(_sample_result()))
    assert log["version"] == SARIF_VERSION
    run = log["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert {"DET001", "DET005", "CONC001", "CONC002", "PAR001",
            "PRAGMA001", "PARSE"} <= rule_ids
    assert len(run["results"]) == 2
    suppressed = [r for r in run["results"] if "suppressions" in r]
    assert len(suppressed) == 1
    assert suppressed[0]["suppressions"][0]["kind"] == "inSource"
    live = next(r for r in run["results"] if "suppressions" not in r)
    assert live["ruleId"] == "DET001"
    assert live["level"] == "error"
    region = live["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 5
    assert region["startColumn"] >= 1


def test_sarif_relativizes_paths(tmp_path):
    dirty = tmp_path / "pkg" / "mod.py"
    dirty.parent.mkdir()
    dirty.write_text("import time\n\ndef f():\n    return time.time()\n")
    log = json.loads(render_sarif(lint_paths([dirty]), root=tmp_path))
    uri = (log["runs"][0]["results"][0]["locations"][0]
           ["physicalLocation"]["artifactLocation"]["uri"])
    assert uri == "pkg/mod.py"


# ---------------------------------------------------------------------------
# CLI: new modes
# ---------------------------------------------------------------------------
def test_cli_check_pragmas(tmp_path, capsys):
    stale = tmp_path / "stale.py"
    stale.write_text("x = 1  # repro: allow-wall-clock\n")
    assert lint_main([str(stale)]) == 0
    assert lint_main(["--check-pragmas", str(stale)]) == 1
    assert "PRAGMA001" in capsys.readouterr().out
    assert lint_main(["--check-pragmas", "--select", "det001",
                      str(stale)]) == 2
    capsys.readouterr()


def test_cli_incremental_modes(tmp_path, capsys, monkeypatch):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x):\n    return x\n")
    cache_dir = str(tmp_path / "cache")
    assert lint_main(["--incremental", "--cache-dir", cache_dir,
                      str(clean)]) == 0
    assert "1 re-analyzed" in capsys.readouterr().out
    assert lint_main(["--incremental", "--cache-dir", cache_dir,
                      str(clean)]) == 0
    assert "0 re-analyzed, 1 reused" in capsys.readouterr().out
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert lint_main(["--incremental", str(clean)]) == 2
    capsys.readouterr()


def test_cli_sarif_output_file(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\n\ndef f():\n    return time.time()\n")
    out = tmp_path / "lint.sarif"
    code = lint_main(["--format", "sarif", "--output", str(out),
                      str(dirty)])
    assert code == 1
    assert capsys.readouterr().out == ""
    log = json.loads(out.read_text())
    assert log["version"] == SARIF_VERSION
    assert log["runs"][0]["results"][0]["ruleId"] == "DET001"


# ---------------------------------------------------------------------------
# the contract: the repo's own source is clean
# ---------------------------------------------------------------------------
def test_self_check_src_repro_is_clean():
    # check_pragmas=True makes this the strictest possible run: every
    # rule (including the interprocedural ones) plus dead-pragma audit
    result = lint_paths([SRC_ROOT], check_pragmas=True)
    assert result.files_checked > 50
    ids = {r.rule_id for r in all_rules()}
    assert {"DET005", "CONC001", "CONC002", "PAR001"} <= ids
    report = render_console(result)
    assert result.ok, f"repro-lint found violations:\n{report}"
    # the intentional boundary sites stay visible as suppressions
    assert len(result.suppressed) >= 10
