"""Content-addressed on-disk caching for the offline pipeline.

Every expensive pipeline artifact (fitted synthetic traces, finished
experiment specs, realised request traces, EM mixture fits) is a pure
function of its inputs, so it can be memoised under a *fingerprint*: a
SHA-256 digest of a canonical encoding of the trace content, workload
pool, pipeline parameters, seed, and code version.  Warm re-runs of
``repro shrinkray`` / ``repro generate`` then skip straight to the stored
artifact, byte-identical to what a cold run would produce.

Design rules (see docs/EXTENDING.md, "Cache-safe pipeline stages"):

- keys are fingerprints of *content*, never of file paths or timestamps;
- entries are written to a temp file and published with ``os.replace``,
  so concurrent writers race benignly (last atomic rename wins, readers
  never observe a torn file);
- a corrupted or unreadable entry is treated as a miss -- deleted
  best-effort and recomputed, never a crash;
- :data:`CACHE_SCHEMA_VERSION` is part of every key via
  :func:`code_version`; bump it whenever a pipeline stage's semantics
  change so stale entries invalidate themselves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from repro._version import __version__
from repro.telemetry import registry as _telemetry

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ContentCache",
    "code_version",
    "fingerprint",
    "resolve_cache",
    "tool_fingerprint",
]

#: Bump when a cached stage's output semantics change (new RNG layout,
#: new spec field, ...): every fingerprint embeds it, so old entries
#: simply stop matching instead of serving stale results.
CACHE_SCHEMA_VERSION = 2

#: Environment variable consulted by :func:`resolve_cache`.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def code_version() -> str:
    """Package version + cache schema -- a component of every key."""
    return f"{__version__}+schema{CACHE_SCHEMA_VERSION}"


def _update(h: hashlib._Hash, obj: object) -> None:
    """Feed one object into the digest with type tags and length prefixes
    (so ``("ab", "c")`` and ``("a", "bc")`` cannot collide)."""
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T;" if obj else b"F;")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()};".encode())
    elif isinstance(obj, str):
        raw = obj.encode()
        h.update(f"s{len(raw)}:".encode())
        h.update(raw)
    elif isinstance(obj, bytes):
        h.update(f"b{len(obj)}:".encode())
        h.update(obj)
    elif isinstance(obj, np.ndarray):
        if obj.dtype == object:
            h.update(f"A{obj.shape};".encode())
            for item in obj.ravel():
                _update(h, item)
        else:
            h.update(f"a{obj.dtype.str}{obj.shape};".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}:".encode())
        for item in obj:
            _update(h, item)
    elif isinstance(obj, (set, frozenset)):
        h.update(f"e{len(obj)}:".encode())
        for item in sorted(obj, key=repr):
            _update(h, item)
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}:".encode())
        for key in sorted(obj, key=lambda k: (type(k).__name__, repr(k))):
            _update(h, key)
            _update(h, obj[key])
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: getattr(obj, f.name)
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        }
        h.update(f"D{type(obj).__name__}:".encode())
        _update(h, fields)
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__name__!r}; pass plain data "
            "(numbers, strings, arrays, dicts, dataclasses)"
        )


def fingerprint(*parts: object) -> str:
    """Stable SHA-256 hex digest of a canonical encoding of ``parts``.

    Deterministic across processes and sessions: dict ordering is
    normalised, numpy arrays hash dtype + shape + bytes, dataclasses hash
    their public fields.  Distinct types never collide (``1`` vs ``"1"``
    vs ``1.0`` all differ).
    """
    h = hashlib.sha256()
    _update(h, parts)
    return h.hexdigest()


def tool_fingerprint(tool: str, *parts: object) -> str:
    """Fingerprint for non-pipeline tooling artifacts (lint results,
    analysis caches, ...) sharing the pipeline's content store.

    Namespaced under ``tool`` and :func:`code_version` so tooling
    entries can never collide with pipeline artifacts, and a package
    release or schema bump invalidates them wholesale -- the same
    self-invalidation contract pipeline keys get.
    """
    return fingerprint("tool", tool, code_version(), *parts)


class ContentCache:
    """A directory of pickled artifacts addressed by fingerprint.

    Entries live under ``root/<key[:2]>/<key>.pkl`` (fan-out keeps
    directory listings short).  Payloads embed their own key so a
    corrupted or mis-addressed file can never satisfy a lookup.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ContentCache({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses})")

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """Return the stored value, or raise ``KeyError`` on a miss.

        Unreadable / corrupted / mis-keyed entries count as misses: the
        bad file is removed best-effort so the next :meth:`put` repairs
        the slot.
        """
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                stored_key, value = pickle.load(fh)
            if stored_key != key:
                raise ValueError("cache entry key mismatch")
        except FileNotFoundError:
            self._miss()
            raise KeyError(key) from None
        except Exception:
            # Torn write survivor, truncation, unpicklable garbage,
            # foreign file: recover by treating it as a miss.
            try:
                path.unlink()
            except OSError:
                pass
            self._miss()
            raise KeyError(key) from None
        self.hits += 1
        reg = _telemetry.active()
        if reg is not None:
            reg.counter("cache_hits_total",
                        "content-cache lookups served from disk").inc()
        return value

    def _miss(self) -> None:
        self.misses += 1
        reg = _telemetry.active()
        if reg is not None:
            reg.counter("cache_misses_total",
                        "content-cache lookups that fell through").inc()

    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key`` via write-to-temp + atomic rename.

        Concurrent writers of the same key are safe: each writes its own
        temp file and the final ``os.replace`` is atomic, so readers see
        either the old complete entry or the new complete entry.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        reg = _telemetry.active()
        if reg is not None:
            reg.counter("cache_stores_total",
                        "content-cache entries written").inc()
        payload = pickle.dumps((key, value),
                               protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def memoize(self, key: str, compute: Callable[[], Any]) -> Any:
        """``get(key)``, falling back to ``put(key, compute())``."""
        try:
            return self.get(key)
        except KeyError:
            value = compute()
            self.put(key, value)
            return value

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        n = 0
        for entry in self.root.glob("??/*.pkl"):
            try:
                entry.unlink()
                n += 1
            except OSError:
                pass
        return n


def resolve_cache(
    cache_dir: Path | str | None = None,
    no_cache: bool = False,
) -> ContentCache | None:
    """CLI policy: an explicit directory wins, else ``$REPRO_CACHE_DIR``,
    else caching is off.  ``no_cache`` forces it off."""
    if no_cache:
        return None
    directory = cache_dir or os.environ.get(CACHE_DIR_ENV)
    if not directory:
        return None
    return ContentCache(directory)
