"""A spawned child process and the pipe the benchmark talks to it through."""

from __future__ import annotations

import time
from typing import Optional


class Wrong(Exception):
    """An output of the program failed its correctness check."""


class ChildProcess:
    """Spawns ``target(conn, *args)`` and waits for its first message.

    Children send ``(kind, payload)`` tuples; ``("wrong", text)`` raises
    :class:`Wrong` and ``("error", traceback)`` raises ``RuntimeError``.
    ``spawned`` is the moment just before the process started, so callers
    can time set-up from it.
    """

    #: Seconds to wait for a message from the child, unless told otherwise.
    timeout_s = 30.0

    def __init__(self, ctx, target, args: tuple, first: str):
        self._conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=target, args=(child_conn, *args),
                                daemon=True)
        self.spawned = time.perf_counter()
        self.proc.start()
        child_conn.close()
        try:
            self.first = self.expect(first)
        except BaseException:
            self.close()
            raise

    def send(self, message) -> None:
        self._conn.send(message)

    def expect(self, kind: str, timeout_s: Optional[float] = None):
        """The payload of the child's next message, which must be ``kind``."""
        if not self._conn.poll(self.timeout_s if timeout_s is None else timeout_s):
            raise RuntimeError(f"child process sent no {kind!r} message")
        got, payload = self._conn.recv()
        if got == "wrong":
            raise Wrong(payload)
        if got == "error":
            raise RuntimeError(f"child process failed:\n{payload}")
        if got != kind:
            raise RuntimeError(f"child process sent {got!r}, wanted {kind!r}")
        return payload

    def close(self) -> None:
        """Close the pipe and wait for the child; terminate it if it hangs."""
        self._conn.close()
        self.proc.join(timeout=self.timeout_s)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=self.timeout_s)
