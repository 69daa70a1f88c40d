"""Span tracing installed from the benchmark's own code.

The program has no tracing hooks of its own, so the traced run wraps the
public functions at each layer boundary from outside (see the
``install_*`` functions below).  A wrapper records one span per call:
its name, start, end and the span that was open when it began.  A
layer's self time is its span's duration minus the time its child spans
cover, accumulated online so the totals need no post-processing.  Generator functions (the DES processes of
``simnet`` and ``core``) are timed per resume, never at creation.

Spans are kept in memory, up to ``SPAN_CAP`` per process, and written
out as tab-separated text when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Spans kept in memory per process (aggregates cover every span).
SPAN_CAP = 100_000


class Tracer:
    """Per-process span recorder with online self-time aggregation."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Open spans: [start, child_seconds, span_id, parent_span_id].
        self._stack: List[list] = []
        self._next_id = 0
        self._epoch = time.perf_counter()
        self._span_id = array("i")
        self._span_parent = array("i")
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._patched: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _enter(self) -> list:
        stack = self._stack
        frame = [time.perf_counter(), 0.0, self._next_id,
                 stack[-1][2] if stack else -1]
        self._next_id += 1
        stack.append(frame)
        return frame

    def _exit(self, name: str, name_id: int, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        self.self_s[name] += duration - frame[1]
        if stack:
            stack[-1][1] += duration
        span_id = frame[2]
        if span_id < SPAN_CAP:
            self._span_id.append(span_id)
            self._span_parent.append(frame[3])
            self._span_name.append(name_id)
            self._span_start.append(frame[0] - self._epoch)
            self._span_end.append(end - self._epoch)

    # -- wrappers -------------------------------------------------------------
    def span(self, name: str, fn: Callable, count_result: str = "") -> Callable:
        """Wrap a plain function: one span per call.

        ``count_result`` names a counter that accumulates ``len()`` of
        every return value (frames granted per scheduler call).
        """
        name_id = self._name_id(name)
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, name_id, frame)
            calls[name] += 1
            if count_result:
                counts[count_result] += len(result)
            return result

        return wrapper

    def generator_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: one span per resume.

        Creating the generator counts one call and costs no span; each
        ``send``/``throw`` that resumes it is timed, so simulated waits
        (the generator suspended at a ``yield``) are never charged.
        """
        name_id = self._name_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            gen = fn(*args, **kwargs)
            value = None
            thrown = None
            while True:
                frame = self._enter()
                try:
                    if thrown is None:
                        item = gen.send(value)
                    else:
                        item = gen.throw(thrown)
                except StopIteration as stop:
                    self._exit(name, name_id, frame)
                    return stop.value
                except BaseException:
                    self._exit(name, name_id, frame)
                    raise
                self._exit(name, name_id, frame)
                value = None
                thrown = None
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the generator
                    thrown = exc

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap a function to count its calls (no span, no timing)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------
    def patch(self, owner, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``wrap(original)``; undone by unpatch."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export ---------------------------------------------------------------
    def aggregates(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        """Write the kept spans as ``id parent name start_us end_us`` lines."""
        names = self._names
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self._span_id)):
                out.write(f"{self._span_id[i]}\t{self._span_parent[i]}\t"
                          f"{names[self._span_name[i]]}\t"
                          f"{self._span_start[i] * 1e6:.1f}\t"
                          f"{self._span_end[i] * 1e6:.1f}\n")


def merge_aggregates(parts) -> dict:
    """Sum per-process aggregates (same-named spans add up)."""
    merged = {"calls": defaultdict(int), "self_s": defaultdict(float),
              "counts": defaultdict(int)}
    for part in parts:
        for key in merged:
            for name, value in part.get(key, {}).items():
                merged[key][name] += value
    return merged


# -- what each process wraps ---------------------------------------------------

def _install_service_layers(tracer: Tracer) -> None:
    """Layers shared by the UDP server and the DES service run."""
    from repro.congestion.controller import CongestionController
    from repro.service import engine, machines, metrics, scheduler

    for cls in (machines.BlastSenderMachine, machines.WindowSenderMachine):
        tracer.patch(cls, "next_frame",
                     lambda f: tracer.span("machines.next_frame", f))
        tracer.patch(cls, "frames_available",
                     lambda f: tracer.span("machines.frames_available", f))
        tracer.patch(cls, "on_frame",
                     lambda f: tracer.span("machines.sender_on_frame", f))
    tracer.patch(machines.ReceiverMachine, "on_frame",
                 lambda f: tracer.span("machines.receiver_on_frame", f))
    tracer.patch(CongestionController, "on_timeout",
                 lambda f: tracer.counter("machines.timer_stalls", f))
    for cls in (scheduler.FifoPolicy, scheduler.RoundRobinPolicy):
        tracer.patch(cls, "grants",
                     lambda f: tracer.span("scheduler.grants", f,
                                           count_result="scheduler.frames_granted"))
    for attr in ("on_frame", "poll", "drain_sends", "next_deadline"):
        tracer.patch(engine.ServiceCore, attr,
                     lambda f, a=attr: tracer.span(f"engine.{a}", f))
    for attr in ("on_submitted", "on_started", "on_finished", "on_rejected",
                 "on_queue_depth"):
        tracer.patch(metrics.ServiceMetrics, attr,
                     lambda f: tracer.span("metrics.hooks", f))


def _install_socket_layers(tracer: Tracer, recv_name: str = "") -> None:
    """Datagram I/O, codec and fault wrapper (both UDP processes)."""
    from repro.faults.socket import FaultySocket
    from repro.service import iobatch

    tracer.patch(iobatch.DatagramBatchIO, "recv_batch",
                 lambda f: tracer.span("iobatch.recv_batch", f))
    for attr in ("send_frame", "send_datagram"):
        tracer.patch(iobatch.DatagramBatchIO, attr,
                     lambda f: tracer.span("iobatch.send", f))
    tracer.patch(iobatch, "encode_into",
                 lambda f: tracer.span("wire.encode_into", f))
    tracer.patch(FaultySocket, "sendto",
                 lambda f: tracer.span("faults.sendto", f))
    if recv_name:
        for attr in ("recv_ready_into", "recvfrom_into"):
            tracer.patch(FaultySocket, attr, lambda f: tracer.span(recv_name, f))


class _SocketProxy:
    """Stands in for a raw socket so its syscalls get spans of their own."""

    def __init__(self, sock, tracer: Tracer, recv_name: str):
        self._sock = sock
        self.sendto = tracer.span("syscall.sendto", sock.sendto)
        self.recvfrom_into = tracer.span(recv_name, sock.recvfrom_into)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def trace_syscalls(tracer: Tracer, fault_socket, recv_name: str) -> None:
    """Give the kernel calls under a ``FaultySocket`` their own spans.

    Without this, the time spent in ``sendto``/``recvfrom_into``
    syscalls would count as the fault layer's self time.
    """
    fault_socket._sock = _SocketProxy(fault_socket._sock, tracer, recv_name)


def install_server(tracer: Tracer) -> None:
    """Wrap the layers the UDP server process runs."""
    from repro.service import udpservice

    _install_service_layers(tracer)
    _install_socket_layers(tracer, "faults.recv")
    tracer.patch(udpservice, "decode",
                 lambda f: tracer.span("wire.decode", f))
    tracer.patch(udpservice.UdpTransferService, "serve",
                 lambda f: tracer.span("udpservice.serve", f))


def install_client(tracer: Tracer) -> None:
    """Wrap the layers the load generator runs.

    The client's blocking socket receive is traced by ``trace_syscalls``
    under its own name, so its waiting is charged to neither the kernel
    nor ``client.pull``.
    """
    from repro.service import machines, udpservice
    from repro.udpnet import endpoints

    _install_socket_layers(tracer)
    tracer.patch(machines.ReceiverMachine, "on_frame",
                 lambda f: tracer.span("machines.receiver_on_frame", f))
    tracer.patch(endpoints, "decode",
                 lambda f: tracer.span("wire.decode", f))
    tracer.patch(udpservice.UdpServiceClient, "pull",
                 lambda f: tracer.span("client.pull", f))


def install_des(tracer: Tracer) -> None:
    """Wrap the simulator, the simulated network and the protocol engines."""
    from repro.core.base import Transfer
    from repro.sim.environment import Environment
    from repro.simnet.interface import Interface

    _install_service_layers(tracer)
    tracer.patch(Environment, "schedule",
                 lambda f: tracer.counter("sim.events", f))
    tracer.patch(Environment, "run", lambda f: tracer.span("sim.run", f))
    tracer.patch(Interface, "send",
                 lambda f: tracer.generator_span("simnet.interface_send", f))
    tracer.patch(Interface, "receive",
                 lambda f: tracer.generator_span("simnet.interface_receive", f))
    for attr in ("_guarded_sender", "_guarded_receiver"):
        tracer.patch(Transfer, attr,
                     lambda f: tracer.generator_span("core.transfer_run", f))
