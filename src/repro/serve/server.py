"""Service frontends: stdin/stdout and a local unix socket.

Both frontends speak the same line protocol (:mod:`repro.serve.protocol`)
against one shared :class:`~repro.serve.service.JobService`:

* **stdio** — one client, the process's own stdin/stdout, and the
  default when no ``--socket`` is given.  The shape a shell pipeline or
  a supervising process uses: write request lines, read reply and event
  lines (``tests/test_serve.py`` drives it in a subprocess).
* **socket** — ``asyncio.start_unix_server`` on a filesystem path;
  any number of concurrent local clients, each with its own event
  stream (what ``tools/serve_smoke.py`` drives).  Telemetry pushes go
  only to the clients subscribed to the job (its submitter, plus anyone
  who resumed it).

Replies and pushed events interleave on one output stream; clients
tell them apart by shape (``ok`` vs ``event`` key).  Per connection, a
single writer drains an output queue so a telemetry push never tears a
reply line.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from typing import Any, Dict, Iterable, Optional

from repro.scenarios import load_all
from repro.serve.protocol import ProtocolError, decode, encode, error_reply
from repro.serve.service import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WORKERS,
    JobService,
)
from repro.serve.worker import DEFAULT_WINDOWS


async def _pump(queue: "asyncio.Queue", write) -> None:
    """Drain ``queue`` through ``write`` until a ``None`` sentinel."""
    while True:
        message = await queue.get()
        if message is None:
            return
        await write(encode(message))


async def _handle_line(
    service: JobService, line: str, out: "asyncio.Queue"
) -> Optional[Dict[str, Any]]:
    line = line.strip()
    if not line:
        return None
    try:
        request = decode(line)
    except ProtocolError as exc:
        return error_reply(str(exc))
    return await service.handle(request, events=out)


async def serve_stdio(service: JobService) -> None:
    """Serve one client over this process's stdin/stdout."""
    loop = asyncio.get_running_loop()
    out: asyncio.Queue = asyncio.Queue()

    async def write(text: str) -> None:
        sys.stdout.write(text)
        sys.stdout.flush()

    writer = asyncio.create_task(_pump(out, write))
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:  # EOF: client hung up
                break
            reply = await _handle_line(service, line, out)
            if reply is not None:
                out.put_nowait(reply)
            if service.closing:
                break
    finally:
        out.put_nowait(None)
        await writer


async def serve_socket(service: JobService, path: str) -> None:
    """Serve concurrent local clients on a unix socket at ``path``."""
    stop = asyncio.Event()

    async def on_connect(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        out: asyncio.Queue = asyncio.Queue()

        async def write(text: str) -> None:
            writer.write(text.encode("utf-8"))
            await writer.drain()

        pump = asyncio.create_task(_pump(out, write))
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                reply = await _handle_line(service, line.decode("utf-8"), out)
                if reply is not None:
                    out.put_nowait(reply)
                if service.closing:
                    stop.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            out.put_nowait(None)
            try:
                await pump
            except (ConnectionResetError, BrokenPipeError):
                pass
            writer.close()

    # Bind under a temporary name and move the socket into place once it
    # listens: a client connecting on first sight of ``path`` is served.
    staging = f"{path}.{os.getpid()}"
    server = await asyncio.start_unix_server(on_connect, path=staging)
    try:
        os.replace(staging, path)
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        for leftover in (staging, path):
            if os.path.exists(leftover):
                os.unlink(leftover)


async def run_service(
    socket_path: Optional[str] = None,
    workers: int = DEFAULT_WORKERS,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    windows: int = DEFAULT_WINDOWS,
) -> None:
    """Boot a service, serve until shutdown, tear the pool down."""
    load_all()
    service = JobService(
        workers=workers, queue_limit=queue_limit, windows=windows
    )
    await service.start()
    try:
        if socket_path:
            await serve_socket(service, socket_path)
        else:
            await serve_stdio(service)
    finally:
        await service.close()


def main(argv: Optional[Iterable[str]] = None) -> int:
    """Entry point for ``repro serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the scenario job service (stdio or unix socket).",
    )
    parser.add_argument(
        "--socket",
        default="",
        help="unix socket path to listen on (default: serve stdin/stdout)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        help=f"worker processes (default {DEFAULT_WORKERS})",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=DEFAULT_QUEUE_LIMIT,
        help=f"max queued jobs before submissions are refused "
        f"(default {DEFAULT_QUEUE_LIMIT})",
    )
    parser.add_argument(
        "--windows",
        type=int,
        default=DEFAULT_WINDOWS,
        help=f"telemetry windows per phased job (default {DEFAULT_WINDOWS})",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    asyncio.run(
        run_service(
            socket_path=args.socket or None,
            workers=args.workers,
            queue_limit=args.queue_limit,
            windows=args.windows,
        )
    )
    return 0
