"""Campaign scheduler: fan jobs out across an isolated worker pool.

Each job runs in its **own process** (one process per attempt, never a
long-lived pool worker), so a job that raises, hangs or hard-dies can
never poison a neighbour or take the campaign down:

* a worker that sends a ``crashed`` payload (caught exception) or dies
  without a payload (non-zero exit / killed) is recorded as ``crashed``
  with its traceback / log tail, and retried up to ``spec.retries``
  times with exponential backoff — crashes are treated as potentially
  transient (the ``flaky:N`` injection hook exercises exactly this);
* a worker that exceeds ``spec.timeout`` wall-clock seconds is
  terminated (SIGTERM, then SIGKILL) and recorded as ``timeout`` — no
  retry, a hung simulation would hang again;
* everything else continues unaffected; the campaign itself always
  completes.

Results stream back over per-job pipes; the parent merges each job's
deterministic metrics snapshot into the campaign aggregate
(:func:`repro.obs.merge_snapshots`) and keeps host timings separate, so
the aggregate is byte-identical across ``--jobs 1`` and ``--jobs N``
runs of the same matrix.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import connection as _mp_connection
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.campaign.matrix import JobSpec
from repro.campaign.result import JOB_STATUSES, JobResult
from repro.campaign.worker import child_main

_LOG_TAIL_LINES = 20


def _mp_context():
    # fork is markedly cheaper for a pure-Python ISS and the parent is
    # single-threaded; fall back to spawn where fork does not exist
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _log_tail(path: str, lines: int = _LOG_TAIL_LINES) -> List[str]:
    try:
        with open(path, errors="replace") as handle:
            return handle.read().splitlines()[-lines:]
    except OSError:
        return []


@dataclass
class _Running:
    spec: JobSpec
    attempt: int
    process: "multiprocessing.process.BaseProcess"
    conn: object
    log_path: str
    deadline: float
    payload: Optional[dict] = None
    history: List[dict] = field(default_factory=list)


@dataclass
class CampaignResult:
    """Everything :func:`run_campaign` produced, in job-id order."""

    records: List[JobResult]
    wall_seconds: float
    #: how many records were served from the result cache (no simulator
    #: boot happened for these)
    cache_hits: int = 0

    @property
    def status_counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in JOB_STATUSES}
        for record in self.records:
            counts[record.status] += 1
        return counts

    @property
    def all_ok(self) -> bool:
        return all(r.status == "ok" for r in self.records)


@dataclass
class _Pending:
    spec: JobSpec
    attempt: int
    ready_at: float = 0.0
    history: List[dict] = field(default_factory=list)


def _flat(name: str) -> str:
    """``name`` as one file-name component.

    Job ids and workload names may embed path separators (dynamic
    ``gen/<seed>/<variant>`` workloads); flattening them keeps every log
    and snapshot directly in its directory.
    """
    return name.replace(os.sep, "_").replace("/", "_")


def prepare_warm_snapshots(specs: List[JobSpec], snapshot_dir: str,
                           note: Callable[[str], None]) -> List[JobSpec]:
    """Boot each distinct platform configuration once and snapshot it.

    Jobs sharing (workload, policy, dift_mode, seed, scale) fork from
    one instruction-zero snapshot — boot and stimulus preparation run
    once per configuration instead of once per job.  ``jit`` is
    deliberately *not* part of the key: the trace compiler never travels
    in snapshots, so compiled and interpreted jobs share the same boot
    image (the worker re-enables it at restore).  The snapshot is
    taken before any guest instruction retires and no SystemC process
    has started, so a restored platform is indistinguishable from a
    freshly booted one.
    """
    from dataclasses import replace

    from repro.bench.workloads import get_workload
    from repro.dift.engine import RECORD
    from repro.obs import Observability

    paths: Dict[tuple, str] = {}
    out = []
    for spec in specs:
        key = (spec.workload, spec.policy, spec.dift_mode, spec.seed,
               spec.scale)
        path = paths.get(key)
        if path is None:
            workload = get_workload(spec.workload)
            dift = spec.policy != "none"
            platform = workload.make_platform(
                spec.scale, dift, obs=Observability(),
                dift_mode=spec.dift_mode if dift else "full",
                seed=spec.seed, engine_mode=RECORD)
            path = os.path.join(
                snapshot_dir,
                f"warm.{_flat(spec.workload)}.{spec.policy}."
                f"{spec.dift_mode}.s{spec.seed}.{spec.scale}.json")
            platform.save_snapshot(path)
            paths[key] = path
            note(f"warm  {os.path.basename(path)}")
        out.append(replace(spec, snapshot=path))
    return out


def run_campaign(specs: List[JobSpec], jobs: int = 1,
                 log_dir: Optional[str] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 poll_interval: float = 0.05,
                 warm_start: bool = False,
                 cache=None,
                 on_record: Optional[Callable[[JobResult], None]] = None,
                 ) -> CampaignResult:
    """Run every spec to a terminal status; never raises for job failures.

    ``timeout`` / ``retries`` override the per-spec values when given
    (the CLI's ``--timeout`` / ``--retries`` flags).  ``log_dir``
    receives one ``<job_id>.a<attempt>.log`` per attempt; when omitted,
    logs go to a temporary directory and only their tails survive (in
    the records of failed jobs).  ``warm_start`` boots each distinct
    platform configuration once in the parent, snapshots it at
    instruction zero, and has every worker resume from the snapshot.

    ``cache`` (a :class:`repro.campaign.cache.ResultCache`) is consulted
    *before* any platform boots: jobs whose content key has a stored
    record are served from disk (``timing.cached`` marks them), and
    fresh ok/failed results of cacheable jobs are stored back.  A fully
    cached campaign runs zero simulations and boots zero snapshots.
    Keys are computed before the first worker forks, so the workers of
    cacheable jobs inherit the guest programs the key computation built
    and assemble nothing (with ``cache=None`` each worker builds its
    own).
    ``on_record`` is invoked once per terminal record as it lands
    (cache hits first, then completions in finish order) — the CLI
    streams the JSONL through it so an interrupted campaign can resume.
    """
    from repro.campaign.cache import consult

    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not specs:
        raise ValueError("no jobs to run")
    ids = [spec.job_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate job ids in the campaign")

    if log_dir is None:
        import tempfile
        _tmp = tempfile.TemporaryDirectory(prefix="repro-campaign-")
        log_dir = _tmp.name
    else:
        _tmp = None
        os.makedirs(log_dir, exist_ok=True)

    ctx = _mp_context()
    note = progress or (lambda message: None)
    emit = on_record or (lambda record: None)
    started = time.perf_counter()

    records: Dict[str, JobResult] = {}
    hits, specs, cache_keys = consult(cache, list(specs), note)
    for record in hits:
        records[record.job.job_id] = record
        emit(record)
    if warm_start and specs:
        specs = prepare_warm_snapshots(specs, log_dir, note)
    pending = deque(_Pending(spec, 0) for spec in specs)
    delayed: List[_Pending] = []
    running: List[_Running] = []

    def effective_timeout(spec: JobSpec) -> float:
        return timeout if timeout is not None else spec.timeout

    def effective_retries(spec: JobSpec) -> int:
        return retries if retries is not None else spec.retries

    def launch(item: _Pending) -> None:
        spec = item.spec
        recv, send = ctx.Pipe(duplex=False)
        log_path = os.path.join(log_dir,
                                f"{_flat(spec.job_id)}.a{item.attempt}.log")
        process = ctx.Process(
            target=child_main,
            args=(send, spec.to_dict(), item.attempt, log_path),
            name=f"campaign-{spec.job_id}", daemon=True)
        process.start()
        send.close()   # child's end; keep only the receiving half
        running.append(_Running(
            spec=spec, attempt=item.attempt, process=process, conn=recv,
            log_path=log_path,
            deadline=time.perf_counter() + effective_timeout(spec),
            history=item.history))
        note(f"start {spec.job_id} (attempt {item.attempt})")

    def finalize(job: _Running, payload: dict) -> None:
        payload.setdefault("job", job.spec.to_dict())
        record = replace(
            JobResult.from_json(payload),
            attempts=job.attempt + 1,
            retried_errors=tuple(job.history),
            log_tail=(tuple(_log_tail(job.log_path))
                      if payload["status"] != "ok" else ()))
        if (cache is not None and record.ran
                and record.job.job_id in cache_keys):
            cache.put(cache_keys[record.job.job_id], record)
        records[record.job.job_id] = record
        emit(record)
        note(f"done  {record.job.job_id}: {record.status}")

    def reap(job: _Running) -> None:
        """Process one finished/expired worker; requeue when retryable."""
        running.remove(job)
        job.conn.close()
        payload = job.payload
        if payload is None:
            exitcode = job.process.exitcode
            payload = {
                "job": job.spec.to_dict(),
                "status": "crashed",
                "error": {
                    "type": "WorkerDied",
                    "message": f"worker exited with code {exitcode} "
                               "before sending a result",
                    "exitcode": exitcode,
                },
            }
        if (payload["status"] == "crashed"
                and job.attempt < effective_retries(job.spec)):
            job.history.append(payload.get("error", {}))
            delay = job.spec.backoff * (2 ** job.attempt)
            note(f"retry {job.spec.job_id} in {delay:.2f}s "
                 f"(attempt {job.attempt + 1})")
            delayed.append(_Pending(job.spec, job.attempt + 1,
                                    ready_at=time.perf_counter() + delay,
                                    history=job.history))
            return
        finalize(job, payload)

    def kill(job: _Running) -> None:
        job.process.terminate()
        job.process.join(timeout=2.0)
        if job.process.is_alive():
            job.process.kill()
            job.process.join(timeout=2.0)

    while pending or delayed or running:
        now = time.perf_counter()
        for item in [d for d in delayed if d.ready_at <= now]:
            delayed.remove(item)
            pending.append(item)
        while pending and len(running) < jobs:
            launch(pending.popleft())
        if not running:
            # only backoff-delayed retries left: sleep to the nearest
            time.sleep(max(poll_interval,
                           min(d.ready_at for d in delayed) - now))
            continue

        _mp_connection.wait([job.conn for job in running],
                            timeout=poll_interval)
        now = time.perf_counter()
        for job in list(running):
            got_payload = False
            try:
                if job.conn.poll():
                    job.payload = job.conn.recv()
                    got_payload = True
            except (EOFError, OSError):
                got_payload = True   # pipe closed without a payload
            if got_payload or not job.process.is_alive():
                job.process.join(timeout=5.0)
                if job.process.is_alive():
                    kill(job)
                reap(job)
            elif now >= job.deadline:
                kill(job)
                job.payload = {
                    "job": job.spec.to_dict(),
                    "status": "timeout",
                    "error": {
                        "type": "JobTimeout",
                        "message": f"exceeded the "
                                   f"{effective_timeout(job.spec):g}s "
                                   "wall-clock budget and was terminated",
                    },
                }
                reap(job)

    if _tmp is not None:
        _tmp.cleanup()
    return CampaignResult(
        records=[records[job_id] for job_id in sorted(records)],
        wall_seconds=time.perf_counter() - started,
        cache_hits=len(hits))
