"""Argument parsing for the ``serve`` and ``submit`` subcommands.

Kept out of :mod:`repro.cli` so the experiment CLI's single-positional
parser stays untouched; :func:`repro.cli.main` dispatches here (and to
the ``cache`` maintenance subcommand) before building its own parser.

Examples::

    repro-mapreduce serve --cache-dir ~/.cache/repro-mapreduce --workers 2
    repro-mapreduce submit --spec examples/studies/smoke.toml \\
        --url http://127.0.0.1:8642 --csv smoke.csv
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

__all__ = ["main_serve", "main_submit", "DEFAULT_PORT"]

#: Default TCP port for ``serve``/``submit`` (unassigned by IANA).
DEFAULT_PORT = 8642


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mapreduce serve",
        description=(
            "Run the sweep-service daemon: a local HTTP/JSON API that "
            "accepts study specs, dedupes identical run specs across "
            "concurrent studies, and persists every result to the shared "
            "results cache so killed sweeps resume with only cache misses."
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; the API is unauthenticated)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port to bind (default {DEFAULT_PORT}; 0 picks a free port)",
    )
    parser.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help=(
            "results-cache directory shared with offline sweeps (created "
            "if missing); the service is content-addressed end to end, so "
            "this flag is required"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="executor threads running simulations concurrently (default 1)",
    )
    return parser


def main_serve(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-mapreduce serve``."""
    args = _serve_parser().parse_args(argv)
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    from repro.service.server import create_service

    try:
        service = create_service(
            args.host,
            args.port,
            cache_dir=args.cache_dir,
            workers=args.workers,
        )
    except OSError as exc:
        raise SystemExit(
            f"cannot bind {args.host}:{args.port}: {exc}"
        ) from None
    service.start()
    print(f"sweep service listening on {service.url} (cache: {args.cache_dir})")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.executor.stop(wait=True)
        service.server_close()
    return 0


def _submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mapreduce submit",
        description=(
            "Submit a study spec file to a running sweep service, poll it "
            "to completion and print/export the results."
        ),
    )
    parser.add_argument(
        "--spec",
        required=True,
        metavar="FILE",
        help="study spec file (.toml or .json), same format as 'sweep --spec'",
    )
    parser.add_argument(
        "--url",
        default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help=f"service base URL (default http://127.0.0.1:{DEFAULT_PORT})",
    )
    parser.add_argument(
        "--csv",
        default=None,
        metavar="FILE",
        help="write the study's CSV export here once completed",
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="FILE",
        help="write the study's JSON export here once completed",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="seconds to wait for completion before giving up (default 600)",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="seconds between status polls (default 0.2)",
    )
    parser.add_argument(
        "--no-wait",
        action="store_true",
        help="submit and print the study id without polling to completion",
    )
    return parser


def main_submit(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-mapreduce submit``."""
    args = _submit_parser().parse_args(argv)
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=max(args.timeout, 10.0))
    try:
        summary = client.submit(args.spec)
        study_id = summary["id"]
        print(
            f"submitted study {summary['name']!r} as {study_id} "
            f"({summary['total']} points, {summary['unique_specs']} unique specs): "
            f"{summary['status']}"
        )
        if args.no_wait:
            return 0
        if summary["status"] != "completed":
            summary = client.wait(study_id, timeout=args.timeout, interval=args.poll)
        print(
            f"study {study_id} completed: "
            f"{summary['slots_from_cache']} from cache, "
            f"{summary['slots_from_runs']} executed, "
            f"fingerprint {summary['resultset_fingerprint'][:16]}..."
        )
        if args.csv:
            data = client.results(study_id, format="csv")
            with open(args.csv, "wb") as handle:
                handle.write(data)
            print(f"wrote {args.csv}")
        if args.json_out:
            data = client.results(study_id, format="json")
            with open(args.json_out, "wb") as handle:
                handle.write(data)
            print(f"wrote {args.json_out}")
    except ServiceError as exc:
        raise SystemExit(f"submit failed: {exc}") from None
    return 0
