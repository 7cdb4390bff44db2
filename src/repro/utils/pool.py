"""One process-pool supervisor for independent, retryable tasks.

Two engines fan deterministic tasks out over worker processes: the
experiment runner's ``(metric, step, seed)`` cells
(:mod:`repro.eval.parallel`) and the sharded ingest's chunk parses
(:mod:`repro.ingest.shard.worker`).  Both need the same fault tolerance,
and :class:`Supervisor` is the only implementation of it:

- **Pool mode.**  Each task is its own future, at most ``workers`` are in
  flight, so a failure is attributable to a task and the driver knows
  when each task started.  A task that raises is charged an
  ``exception`` attempt and re-queued after
  ``RetryPolicy.backoff_seconds``.  When ``timeout_seconds`` is set, a
  task in flight past ``RetryPolicy.hard_timeout_seconds`` is charged a
  ``timeout`` attempt and the pool is torn down and rebuilt, which
  reclaims a worker wedged where no signal reaches it.  A vanished
  worker (``BrokenExecutor``) charges every in-flight task a ``crash``
  attempt and rebuilds the pool.  Any other ``BaseException`` tears the
  pool down and propagates.
- **Degradation.**  After ``max_pool_rebuilds`` rebuilds the remaining
  tasks run inline, each keeping the attempts it already burned.
- **Inline mode.**  Tasks run in order in the driver process; a failed
  attempt is retried in place after its backoff sleep.  A supervisor
  with fewer than two workers, or fewer than two tasks, runs inline
  from the start.

**Crash charge.**  Nobody knows which in-flight task killed its worker,
so all of them are charged, and an innocent task must not be failed for
sharing a pool with a killer.  A crash therefore fails a task only once
its attempts reach ``max_attempts + max_pool_rebuilds``; an exception or
a timeout fails it at ``max_attempts``.  With ``max_attempts=1,
max_pool_rebuilds=0`` the first crash is fatal.

Recovery never changes a result: callers run pure functions of their
inputs, so a task re-run after a crash, a timeout or a degradation
returns what its first attempt would have.
"""

from __future__ import annotations

import contextlib
import heapq
import time
from collections import deque
from collections.abc import Hashable, Iterable
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.eval.retry import RetryPolicy

#: driver poll interval while futures are in flight, seconds.
_TICK_SECONDS = 0.05


class _PoolRebuild(Exception):
    """Internal: the current pool is unusable; rebuild and resubmit."""


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on wedged or dead workers."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        with contextlib.suppress(Exception):
            process.terminate()
    with contextlib.suppress(Exception):
        pool.shutdown(wait=False, cancel_futures=True)


class Supervisor:
    """Run every task to completion on a process pool or inline.

    Callers subclass it and override the hooks.  ``policy`` is a
    :class:`~repro.eval.retry.RetryPolicy`; ``workers`` caps the pool
    size and ``initializer(*initargs)`` runs once in each worker process.
    After :meth:`run`, ``attempts`` holds each task's failed-attempt count
    and ``retries``, ``pool_rebuilds`` and ``degraded`` say what recovery
    it took.
    """

    def __init__(
        self,
        policy: "RetryPolicy",
        workers: int = 1,
        initializer=None,
        initargs: tuple = (),
    ):
        self.policy = policy
        self.workers = workers
        self.initializer = initializer
        self.initargs = initargs
        self.attempts: "dict[Hashable, int]" = {}
        self.retries = 0
        self.pool_rebuilds = 0
        self.degraded = False
        self._done: "set[Hashable]" = set()

    # -- caller hooks ---------------------------------------------------
    def submit(
        self, pool: ProcessPoolExecutor, task: Hashable, attempt: int
    ) -> Future:
        """Submit one attempt at ``task`` to ``pool``."""
        raise NotImplementedError

    def run_inline(self, task: Hashable, attempt: int) -> Any:
        """Run one attempt at ``task`` in this process."""
        raise NotImplementedError

    def completed(
        self, task: Hashable, result: Any, started: "float | None"
    ) -> None:
        """``task`` succeeded; ``started`` is its pool submit time (monotonic),
        ``None`` when it ran inline."""
        raise NotImplementedError

    def failed(
        self, task: Hashable, attempt: int, kind: str, exc: BaseException
    ) -> None:
        """Attempt ``attempt`` at ``task`` failed; ``kind`` is ``exception``,
        ``timeout`` (hard deadline) or ``crash``."""

    def exhausted(
        self, task: Hashable, attempts: int, exc: BaseException
    ) -> BaseException:
        """The error to raise once ``task`` has no attempts left."""
        raise NotImplementedError

    # -- the loop -------------------------------------------------------
    def run(self, tasks: Iterable[Hashable]) -> None:
        """Run ``tasks``; raises the first :meth:`exhausted` error."""
        todo = list(tasks)
        self.attempts = dict.fromkeys(todo, 0)
        workers = min(self.workers, len(todo))
        while workers > 1 and todo:
            if self.pool_rebuilds > self.policy.max_pool_rebuilds:
                self.degraded = True
                break
            try:
                self._pool_round(todo, workers)
            except _PoolRebuild:
                self.pool_rebuilds += 1
            todo = [task for task in todo if task not in self._done]
        for task in todo:
            self._run_inline(task)

    def _run_inline(self, task: Hashable) -> None:
        while True:
            try:
                result = self.run_inline(task, self.attempts[task])
            except Exception as exc:
                self._charge(task, "exception", exc, self.policy.max_attempts)
                time.sleep(self.policy.backoff_seconds(task, self.attempts[task]))
            else:
                self._complete(task, result, None)
                return

    def _complete(
        self, task: Hashable, result: Any, started: "float | None"
    ) -> None:
        self._done.add(task)
        self.completed(task, result, started)

    def _charge(
        self, task: Hashable, kind: str, exc: BaseException, budget: int
    ) -> None:
        """Record one failed attempt; raise once ``budget`` attempts are spent."""
        attempt = self.attempts[task]
        self.failed(task, attempt, kind, exc)
        self.attempts[task] = attempt + 1
        if attempt + 1 >= budget:
            raise self.exhausted(task, attempt + 1, exc) from exc
        self.retries += 1

    def _pool_round(self, todo: "list[Hashable]", workers: int) -> None:
        """Run one pool's lifetime; raises ``_PoolRebuild`` on breakage."""
        policy = self.policy
        queue = deque(todo)
        retry_heap: "list[tuple[float, Hashable]]" = []
        inflight: "dict[Future, tuple[Hashable, float]]" = {}
        hard = policy.hard_timeout_seconds()
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=self.initializer,
            initargs=self.initargs,
        )
        try:
            while queue or retry_heap or inflight:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    queue.append(heapq.heappop(retry_heap)[1])
                while queue and len(inflight) < workers:
                    task = queue.popleft()
                    future = self.submit(pool, task, self.attempts[task])
                    inflight[future] = (task, time.monotonic())
                if not inflight:
                    # nothing running: sleep until the next retry is due.
                    time.sleep(
                        max(0.0, min(retry_heap[0][0] - time.monotonic(), 0.5))
                    )
                    continue
                finished, _ = wait(
                    inflight, timeout=_TICK_SECONDS, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    task, started = inflight[future]
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        raise  # still in flight: charged below with the rest
                    except Exception as exc:
                        self._charge(task, "exception", exc, policy.max_attempts)
                        ready_at = time.monotonic() + policy.backoff_seconds(
                            task, self.attempts[task]
                        )
                        heapq.heappush(retry_heap, (ready_at, task))
                    else:
                        self._complete(task, result, started)
                    del inflight[future]
                if hard is not None:
                    self._enforce_hard_deadline(hard, inflight)
            pool.shutdown(wait=True)
        except BrokenExecutor as exc:
            _terminate_pool(pool)
            budget = policy.max_attempts + policy.max_pool_rebuilds
            for task, _started in inflight.values():
                self._charge(task, "crash", exc, budget)
            raise _PoolRebuild from exc
        except BaseException:
            _terminate_pool(pool)
            raise

    def _enforce_hard_deadline(self, hard: float, inflight) -> None:
        """Charge tasks stuck past the hard deadline; demand a rebuild.

        The other in-flight tasks are not charged: they are resubmitted
        to the next pool as if they had never started.
        """
        now = time.monotonic()
        overdue = [
            task for task, started in inflight.values() if now - started > hard
        ]
        if not overdue:
            return
        for task in overdue:
            self._charge(
                task,
                "timeout",
                TimeoutError(
                    f"hard deadline exceeded ({hard:.3f}s); worker presumed wedged"
                ),
                self.policy.max_attempts,
            )
        raise _PoolRebuild
