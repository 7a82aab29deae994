"""urllib-based client for the sweep service.

Used by the ``repro-mapreduce submit`` subcommand, the CI service smoke
and the end-to-end tests.  Pure stdlib (``urllib.request``); every
non-2xx reply raises :class:`ServiceError` carrying the HTTP status and
the server's JSON ``error`` message when present.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.study.core import Study
from repro.study.specfile import study_to_json

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A service request failed (connection error or non-2xx reply)."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Minimal blocking client for one sweep-service daemon."""

    def __init__(self, base_url: str, *, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ----------------------------------------------------------

    def _request(
        self,
        path: str,
        *,
        method: str = "GET",
        body: Optional[bytes] = None,
        content_type: Optional[str] = None,
    ) -> bytes:
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method
        )
        if content_type is not None:
            request.add_header("Content-Type", content_type)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                return reply.read()
        except urllib.error.HTTPError as exc:
            with exc:  # the error reply holds the connection open
                detail = exc.read().decode("utf-8", errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (ValueError, AttributeError):
                pass
            raise ServiceError(
                f"{method} {path} -> {exc.code}: {detail}", status=exc.code
            ) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(f"{method} {path} failed: {exc.reason}") from exc

    def _request_json(self, path: str, **kwargs: Any) -> Any:
        return json.loads(self._request(path, **kwargs).decode("utf-8"))

    # -- endpoints ----------------------------------------------------------

    def healthz(self) -> bool:
        """True when the daemon answers ``GET /healthz`` with ok."""
        try:
            return self._request_json("/healthz").get("status") == "ok"
        except ServiceError:
            return False

    def wait_healthy(self, timeout: float = 10.0, interval: float = 0.05) -> None:
        """Poll ``/healthz`` until ok; :class:`ServiceError` on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.healthz():
                return
            time.sleep(interval)
        raise ServiceError(f"service at {self.base_url} not healthy after {timeout}s")

    def metrics(self) -> Dict[str, Any]:
        """The daemon's global counters (``GET /metrics``)."""
        return self._request_json("/metrics")

    def submit(self, spec: Union[Study, str, Path]) -> Dict[str, Any]:
        """Submit a study; returns its status summary (with ``id``).

        ``spec`` may be a :class:`~repro.study.core.Study`, a path to a
        ``.toml``/``.json`` spec file, or raw spec text (JSON unless it
        parses as TOML via the file suffix rule -- pass file paths for
        TOML).
        """
        content_type = "application/json"
        if isinstance(spec, Study):
            text = study_to_json(spec)
        elif isinstance(spec, Path) or (
            isinstance(spec, str) and "\n" not in spec and Path(spec).is_file()
        ):
            path = Path(spec)
            text = path.read_text()
            if path.suffix == ".toml":
                content_type = "application/toml"
        else:
            text = str(spec)
        payload = self._request_json(
            "/studies",
            method="POST",
            body=text.encode("utf-8"),
            content_type=content_type,
        )
        return payload

    def status(self, study_id: str) -> Dict[str, Any]:
        """One study's status summary (``GET /studies/{id}``)."""
        return self._request_json(f"/studies/{study_id}")

    def list_studies(self) -> List[Dict[str, Any]]:
        """Every registered study's summary (``GET /studies``)."""
        return self._request_json("/studies")["studies"]

    def wait(
        self,
        study_id: str,
        *,
        timeout: float = 300.0,
        interval: float = 0.1,
    ) -> Dict[str, Any]:
        """Poll a study until completed/failed; returns the final summary.

        Raises :class:`ServiceError` on study failure or poll timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            summary = self.status(study_id)
            if summary["status"] == "completed":
                return summary
            if summary["status"] == "failed":
                raise ServiceError(
                    f"study {study_id} failed: {summary.get('error', '?')}"
                )
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"study {study_id} still {summary['status']} after {timeout}s "
                    f"({summary['completed']}/{summary['total']} results)"
                )
            time.sleep(interval)

    def results(
        self,
        study_id: str,
        *,
        format: str = "csv",
        partial: bool = False,
    ) -> bytes:
        """Download a study's export (CSV/JSON bytes, exactly as served)."""
        query = f"?format={format}"
        if partial:
            query += "&partial=1"
        return self._request(f"/studies/{study_id}/results{query}")
