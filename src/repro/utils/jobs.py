"""The one reader of ``$REPRO_JOBS``, the worker-count setting.

Kept apart from :mod:`repro.utils.pool` so that callers which only need
the number (the serial ingest path, ``repro serve``) do not import the
process-pool machinery.
"""

from __future__ import annotations

import os

#: environment variable consulted when a worker count is unset.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(jobs: "int | None" = None) -> int:
    """Resolve a worker count: explicit > ``$REPRO_JOBS`` > 1.

    ``0`` (from either source) means "one per CPU".  The library default
    is deliberately serial — parallelism is opt-in via argument or
    environment, never a surprise.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR)
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"{JOBS_ENV_VAR}={env!r} is not an integer") from None
    jobs = int(jobs)
    if jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(
            f"n_jobs must be >= 0 (0 means one per CPU core), got {jobs}"
        )
    return jobs
