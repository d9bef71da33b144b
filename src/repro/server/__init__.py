"""The long-running scheduling service (``repro serve``).

The paper's premise is compile once, use many times; every CLI
invocation before this package rebuilt the warm caches per process.
``repro.server`` keeps one process up instead: POST a workload +
machine + backend, get a schedule, with every request served out of
one process-wide warm description cache, concurrent requests
micro-batched through the fault-tolerant batch driver, and the
observability/resilience layers wired to ``/metrics`` and
``/healthz``.

The app is a dependency-free ASGI 3 callable::

    from repro.server import ServerConfig, create_app

    app = create_app(ServerConfig(cache_dir=".mdes-cache"))

Host it with the bundled stdlib server (``repro serve`` /
:func:`repro.server.http.serve`) or any external ASGI server.  Tests
drive it in-process with :class:`repro.server.testing.AsgiClient`.

Endpoints:

=======================  ====================================================
``GET  /healthz``        Liveness + admission, pool, cache, resilience state
``GET  /metrics``        Prometheus exposition of the ``repro.obs`` registry
``GET  /v1/machines``    Registered machine names
``GET  /v1/engines``     Registered backends and their capabilities
``POST /v1/schedule``    One workload -> one schedule (micro-batched)
``POST /v1/schedule/batch``  One dedicated fault-tolerant batch run
=======================  ====================================================
"""

from repro.server.app import App, create_app
from repro.server.batcher import MicroBatcher
from repro.server.lifecycle import ServerConfig, ServerState
from repro.server.queue import Admission, QueuePolicy

__all__ = [
    "Admission",
    "App",
    "MicroBatcher",
    "QueuePolicy",
    "ServerConfig",
    "ServerState",
    "create_app",
]
