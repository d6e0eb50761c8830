"""``repro serve``: a long-running simulation service over the executor.

The service promotes the sweep harness into a persistent HTTP/JSON API
(stdlib-only: ``http.server`` + ``concurrent.futures``) in the DINOMO
mould — a stateless compute pool in front of a shared, sharded result
store:

* :mod:`repro.service.api` — request validation (checked-in JSON
  schema + semantic checks) and spec parsing;
* :mod:`repro.service.scheduler` — the single-flight table over
  :class:`~repro.harness.executor.ResultStore` (one flight per missing
  key, hit/miss counters), the bounded worker pool, job/cell lifecycle
  tracking and the service latency histogram;
* :mod:`repro.service.app` — the HTTP server and routes
  (``POST /v1/batch``, ``GET /v1/batch/<id>``,
  ``GET /v1/batch/<id>/events``, ``GET /v1/healthz``,
  ``GET /v1/stats``).
"""

from repro.service.api import BatchValidationError, parse_batch
from repro.service.app import ReproServer, make_server, serve
from repro.service.scheduler import Scheduler

__all__ = [
    "BatchValidationError", "parse_batch", "ReproServer", "make_server",
    "serve", "Scheduler",
]
