"""Content-addressed campaign result cache.

Every campaign job has a *content identity*: the platform configuration
it builds (policy, seed, DIFT mode, memory geometry — everything
:meth:`PlatformConfig.to_json` serializes), the exact guest binary
bytes, and the execution-budget axes (``max_instructions``, scale,
jit-ness).  Two jobs with the same identity simulate the same machine on
the same input and produce the same deterministic record — so the second
one is a cache hit, not a re-simulation.  A re-submitted matrix only
runs its delta; that is the substrate for serving many overlapping
analysis submissions.

Deliberately **excluded** from the key: the job id (presentation),
timeout/retry/backoff budgets (scheduling policy), warm-start snapshot
paths (execution strategy — warm and cold runs are proven identical),
and failure injection (injected jobs are never cached at all).  ``jit``
*is* included: jit-on and jit-off runs are snapshot-identical but their
records carry jit-specific gauges, so mixing them would break record
byte-identity.

On-disk layout (``repro.campaign.cache/1``)::

    <cache-dir>/
      VERSION                      # the layout schema line
      objects/<kk>/<key>.json      # kk = first two hex chars of key

Entries are written atomically (temp file + ``os.replace``) so a
concurrent reader never observes a torn record and two writers racing on
the same key both leave a valid entry.  Corrupt or foreign entries read
as misses.  The cache directory is discovered from ``--cache-dir`` first
and the ``REPRO_CACHE`` environment variable second; with neither, the
cache is off.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.matrix import JobSpec
from repro.campaign.result import JobResult

CACHE_SCHEMA = "repro.campaign.cache/1"
KEY_SCHEMA = "repro.campaign.jobkey/1"

#: environment variable consulted when no explicit --cache-dir is given
CACHE_ENV = "REPRO_CACHE"


class CacheError(ValueError):
    """An unusable cache directory (wrong layout version, not ours)."""


def job_key(spec: JobSpec) -> str:
    """The content key: sha256 over the job's simulation identity.

    Builds the guest program and platform config exactly the way the
    worker will (same registry call, same defaults) and hashes the
    canonical JSON of ``{config, binary digest, budget axes}``.  Guest
    builds are memoized per process (registry workloads per scale,
    generated cases per seed), so a matrix assembles each guest once:
    assembly (a few milliseconds per generated case) would otherwise
    cost as much as the short guests' simulation.  When a campaign uses
    a result cache, its workers fork after the keys are computed and
    inherit the built programs; without one (or for a job that is not
    cacheable) each worker builds its own guest.
    """
    from repro.bench.workloads import get_workload
    from repro.dift.engine import RECORD

    workload = get_workload(spec.workload)
    dift = spec.policy != "none"
    program, config = workload.make_config(
        spec.scale, dift,
        dift_mode=spec.dift_mode if dift else "full",
        seed=spec.seed, engine_mode=RECORD)
    material = {
        "schema": KEY_SCHEMA,
        "config": config.to_json(),
        "binary": {
            "sha256": hashlib.sha256(program.image).hexdigest(),
            "size": len(program.image),
            "entry": program.entry,
        },
        "workload": spec.workload,
        "scale": spec.scale,
        "max_instructions": spec.max_instructions,
        "jit": bool(spec.jit),
    }
    canonical = json.dumps(material, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def cacheable(spec: JobSpec) -> bool:
    """Failure-injected jobs exist to exercise the scheduler, not the
    simulator; their outcomes must never be replayed from a cache."""
    return spec.inject is None


class ResultCache:
    """An on-disk ``repro.campaign.cache/1`` store of job records."""

    def __init__(self, root: str):
        self.root = root
        self._objects = os.path.join(root, "objects")
        os.makedirs(self._objects, exist_ok=True)
        version_path = os.path.join(root, "VERSION")
        if os.path.exists(version_path):
            with open(version_path) as handle:
                found = handle.read().strip()
            if found != CACHE_SCHEMA:
                raise CacheError(
                    f"{root}: cache layout {found!r} is not "
                    f"{CACHE_SCHEMA!r}; refusing to mix layouts "
                    "(point --cache-dir at a fresh directory)")
        else:
            _atomic_write(version_path, CACHE_SCHEMA + "\n")

    def path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[JobResult]:
        """The stored record for ``key``, or None (corrupt == miss)."""
        try:
            with open(self.path(key)) as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        try:
            if (entry.get("schema") != CACHE_SCHEMA
                    or entry.get("key") != key):
                return None
            return JobResult.from_json(entry["record"])
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, key: str, record: JobResult) -> str:
        """Store ``record`` under ``key`` atomically; returns the path."""
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"schema": CACHE_SCHEMA, "key": key,
                 "record": record.to_json()}
        _atomic_write(path, json.dumps(entry, sort_keys=True) + "\n")
        return path

    def __len__(self) -> int:
        count = 0
        for _, _, files in os.walk(self._objects):
            count += sum(1 for name in files if name.endswith(".json"))
        return count

    def __repr__(self) -> str:
        return f"ResultCache({self.root!r})"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-cache-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def resolve_cache_dir(explicit: Optional[str] = None,
                      disabled: bool = False) -> Optional[str]:
    """``--cache-dir`` beats ``$REPRO_CACHE`` beats off."""
    if disabled:
        return None
    if explicit:
        return explicit
    return os.environ.get(CACHE_ENV) or None


def open_cache(explicit: Optional[str] = None,
               disabled: bool = False) -> Optional[ResultCache]:
    """Discovery + construction in one step; None when caching is off."""
    root = resolve_cache_dir(explicit, disabled=disabled)
    return ResultCache(root) if root else None


def consult(cache: Optional[ResultCache], specs: List[JobSpec],
            note: Callable[[str], None] = lambda message: None,
            ) -> Tuple[List[JobResult], List[JobSpec], Dict[str, str]]:
    """Partition ``specs`` into cache hits and jobs that must run.

    Returns ``(hits, misses, keys)`` where ``hits`` are stored records
    already rebound to the requesting specs, ``misses`` preserve the
    input order, and ``keys`` maps the job id of every *cacheable* spec
    to its content key (the scheduler stores fresh results under these
    after the run).  With ``cache=None`` everything is a miss and
    ``keys`` is empty.
    """
    hits: List[JobResult] = []
    misses: List[JobSpec] = []
    keys: Dict[str, str] = {}
    if cache is None:
        return hits, list(specs), keys
    for spec in specs:
        if not cacheable(spec):
            misses.append(spec)
            continue
        key = job_key(spec)
        keys[spec.job_id] = key
        stored = cache.get(key)
        if stored is None:
            misses.append(spec)
        else:
            hits.append(stored.rebind(spec))
            note(f"cache {spec.job_id}: hit ({key[:12]})")
    return hits, misses, keys
