"""Stdlib HTTP front end for the sweep service.

A thin, dependency-free serving layer: :class:`SweepService` is a
``ThreadingHTTPServer`` that owns the shared
:class:`~repro.simulation.results_store.ResultsStore`, the
:class:`~repro.service.registry.StudyRegistry` and its
:class:`~repro.service.registry.ServiceExecutor`.  Request handlers only
translate HTTP to registry calls -- all scheduling, dedup and state live
in :mod:`repro.service.registry`.

API surface
-----------
``GET  /healthz``
    ``{"status": "ok"}`` once the executor is running.
``GET  /metrics``
    Global counters: engine runs, cache hits, dedup shares, queue depth,
    store hit/miss/write totals, study counts by status.
``POST /studies``
    Body is a Study spec -- JSON by default, TOML when the
    ``Content-Type`` is ``application/toml`` or ``text/toml``.  Replies
    ``202`` with the study's status summary (including its ``id``).  A
    study whose every run the daemon has already delivered is filled from
    memory at submit, so that ``202`` may already be ``completed`` (with
    its ``resultset_fingerprint``).
    Invalid specs -- including a knob that fails its constructor's check
    when the study compiles -- are ``400``; uncacheable studies are
    ``422``.
``GET  /studies``
    Status summaries of every registered study, oldest first.
``GET  /studies/{id}``
    One study's status summary (``404`` for unknown ids).  Completed
    studies include their ``resultset_fingerprint``, computed once when
    the study completed.
``GET  /studies/{id}/results?format=csv|json[&partial=1]``
    The study's ResultSet export -- byte-identical to the same study's
    offline :meth:`~repro.study.core.Study.run` export.  ``409`` while
    incomplete unless ``partial=1`` asks for the filled slots only.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.service.registry import ServiceExecutor, StudyRegistry, StudySubmitError
from repro.simulation.results_store import ResultsStore
from repro.study.specfile import StudySpecError, study_from_json, study_from_toml

__all__ = ["SweepService", "create_service"]

_TOML_CONTENT_TYPES = ("application/toml", "text/toml")
#: Reject absurd request bodies before reading them (a spec is tiny).
_MAX_BODY_BYTES = 4 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Route HTTP requests to the owning :class:`SweepService`'s registry."""

    server: "SweepService"
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (the daemon may be long-lived)."""

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self._send(status, body, "application/json")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    # -- GET ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        """Serve /healthz, /metrics, /studies, /studies/{id}[/results]."""
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parts == ["healthz"]:
            self._send_json(200, {"status": "ok"})
        elif parts == ["metrics"]:
            self._send_json(200, self.server.registry.metrics())
        elif parts == ["studies"]:
            self._send_json(200, {"studies": self.server.registry.summaries()})
        elif len(parts) == 2 and parts[0] == "studies":
            state = self.server.registry.get(parts[1])
            if state is None:
                self._send_error_json(404, f"unknown study id {parts[1]!r}")
            else:
                self._send_json(200, state.summary())
        elif len(parts) == 3 and parts[0] == "studies" and parts[2] == "results":
            self._get_results(parts[1], parse_qs(parsed.query))
        else:
            self._send_error_json(404, f"no such endpoint: {parsed.path}")

    def _get_results(self, study_id: str, query: Any) -> None:
        state = self.server.registry.get(study_id)
        if state is None:
            self._send_error_json(404, f"unknown study id {study_id!r}")
            return
        fmt = query.get("format", ["csv"])[0]
        if fmt not in ("csv", "json"):
            self._send_error_json(400, f"format must be csv or json, got {fmt!r}")
            return
        partial = query.get("partial", ["0"])[0] in ("1", "true", "yes")
        if state.status == "failed" and not partial:
            self._send_error_json(409, f"study {study_id} failed: {state.error}")
            return
        if state.status not in ("completed",) and not partial:
            self._send_error_json(
                409,
                f"study {study_id} is {state.status} "
                f"({state.filled}/{state.total} results); "
                "retry later or pass partial=1",
            )
            return
        result_set = state.result_set(partial=partial)
        if fmt == "csv":
            self._send(200, result_set.to_csv().encode("utf-8"), "text/csv")
        else:
            self._send(
                200, result_set.to_json().encode("utf-8"), "application/json"
            )

    # -- POST ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        """Accept a Study spec on /studies (JSON body; TOML by content type)."""
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parts != ["studies"]:
            self._send_error_json(404, f"no such endpoint: {parsed.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error_json(400, "invalid Content-Length")
            return
        if length <= 0 or length > _MAX_BODY_BYTES:
            self._send_error_json(400, f"body length must be in (0, {_MAX_BODY_BYTES}]")
            return
        text = self.rfile.read(length).decode("utf-8", errors="replace")
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        try:
            if content_type in _TOML_CONTENT_TYPES:
                study = study_from_toml(text)
            else:
                study = study_from_json(text)
        except StudySpecError as exc:
            self._send_error_json(400, f"invalid study spec: {exc}")
            return
        try:
            state = self.server.registry.submit(study)
        except StudySubmitError as exc:
            self._send_error_json(422, str(exc))
            return
        except (TypeError, ValueError) as exc:
            # Compiling the study runs every constructor's knob checks;
            # nothing is registered or cached when one fails.
            self._send_error_json(400, f"invalid study spec: {exc}")
            return
        self._send_json(202, state.summary())


class SweepService(ThreadingHTTPServer):
    """The daemon: HTTP server + shared store + registry + executor."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        cache_dir: Union[str, Path],
        workers: int = 1,
    ) -> None:
        super().__init__(address, _Handler)
        self.store = ResultsStore(cache_dir)
        self.registry = StudyRegistry(self.store)
        self.executor = ServiceExecutor(self.registry, workers=workers)

    @property
    def url(self) -> str:
        """The service's base URL (actual bound port, even for port 0)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Start the executor threads (serve_forever still needs calling)."""
        self.executor.start()

    def serve_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, embedding)."""
        self.start()
        thread = threading.Thread(
            target=self.serve_forever, name="sweep-http", daemon=True
        )
        thread.start()
        return thread

    def stop(self, wait: bool = True) -> None:
        """Shut down the HTTP loop and the executor threads."""
        self.shutdown()
        self.executor.stop(wait=wait)
        self.server_close()


def create_service(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    cache_dir: Union[str, Path],
    workers: int = 1,
) -> SweepService:
    """Build a :class:`SweepService` bound to ``host:port`` (0 = ephemeral)."""
    return SweepService((host, port), cache_dir=cache_dir, workers=workers)
