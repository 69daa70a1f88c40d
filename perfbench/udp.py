"""UDP workloads: a spawned ``UdpTransferService`` and a one-socket load generator.

The server runs in its own spawned process, as ``repro serve`` runs it.
A control thread in that process answers the benchmark's pipe requests
(CPU time, peak RSS, finished count) and stops the service on request;
it blocks on the pipe and costs nothing while the service runs.  The
load comes from the benchmark process itself: one ``UdpServiceClient``
on one socket, pulling in sequence (closed loop, one client).
"""

from __future__ import annotations

import os
import resource
import threading
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional

from repro.parallel.pool import mix_seed

from perfbench.child import ChildProcess
from perfbench.slices import Slicer
from perfbench.spans import (Tracer, install_client, install_server,
                             trace_syscalls)


@dataclass(frozen=True)
class UdpSpec:
    """One UDP workload."""

    name: str
    loss_p: float
    #: Server retransmission timer and client pull retry interval (s).
    timeout_s: float
    #: Pulls completed when the server's peak RSS is read.
    rss_at_pulls: int
    #: Client linger after each pull (re-answers a round's tail; see README).
    linger_s: float = 0.0
    fixed_size: int = 0  # 0: page-cluster sizes (4-64 KiB)

    def sizes(self, seed: int, count: int) -> List[int]:
        from repro.workloads.sizes import page_cluster_sizes

        if self.fixed_size:
            return [self.fixed_size] * count
        return page_cluster_sizes(count=count, seed=seed)


UDP_SPECS = {
    "udp_pages": UdpSpec("udp_pages", loss_p=0.0, timeout_s=0.5,
                         rss_at_pulls=8000),
    "udp_lossy": UdpSpec("udp_lossy", loss_p=0.01, timeout_s=0.01,
                         rss_at_pulls=400, linger_s=0.02,
                         fixed_size=64 * 1024),
}

#: Warm-up pulls that end set-up (each set-up repeats them).
WARMUP_PULLS = 8

#: Seconds to wait for the server to settle the client's last pull.
SETTLE_S = 5.0


# -- server process -------------------------------------------------------------

def _server_stats(service) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": time.process_time(), "maxrss_kb": usage.ru_maxrss,
            "finished": service.core.finished_count}


def _control_loop(conn, service) -> None:
    while True:
        try:
            message = conn.recv()
        except EOFError:
            message = "stop"
        if message == "stats":
            conn.send(("stats", _server_stats(service)))
        else:
            service.stop()
            return


def server_main(conn, workload: str, seed: int, trace: bool,
                span_path: Optional[str]) -> None:
    """Entry point of the spawned server process."""
    try:
        from repro.service import udpservice
        from repro.service.engine import ServiceConfig
        from repro.service.iobatch import DatagramBatchIO
        from repro.simnet.errors import BernoulliErrors

        spec = UDP_SPECS[workload]
        tracer = Tracer() if trace else None
        if tracer is not None:
            install_server(tracer)
        batches: List[DatagramBatchIO] = []

        class RecordingBatchIO(DatagramBatchIO):
            """Keeps a handle on the loop's batch layer to read its counters."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                batches.append(self)

        udpservice.DatagramBatchIO = RecordingBatchIO
        error_model = (BernoulliErrors(spec.loss_p, seed=mix_seed(seed, 3))
                       if spec.loss_p else None)
        service = udpservice.UdpTransferService(
            ServiceConfig(timeout_s=spec.timeout_s), error_model=error_model)
        if tracer is not None:
            trace_syscalls(tracer, service.sock, "syscall.recv")
        conn.send(("ready", service.address))
        control = threading.Thread(target=_control_loop,
                                   args=(conn, service), daemon=True)
        control.start()
        try:
            service.serve()
        finally:
            service.sock.close()
        control.join(timeout=ChildProcess.timeout_s)
        sock = service.sock
        counters = {
            "datagrams_in": sum(b.datagrams_in for b in batches),
            "recv_batches": sum(b.recv_batches for b in batches),
            "datagrams_out": sum(b.datagrams_out for b in batches),
            "send_drops": sum(b.send_drops for b in batches),
            "faults_datagrams_sent": sock.datagrams_sent,
            "faults_datagrams_dropped": sock.datagrams_dropped,
            "faults_recv_dropped": sock.recv_dropped,
            "faults_injected": dict(sock.faults_injected),
        }
        report = service.core.metrics.to_dict()
        rows = report["transfers"]
        waits = [r["queue_wait_s"] for r in rows
                 if r["queue_wait_s"] is not None]
        metrics = service.core.metrics
        final = {
            "summary": report["summary"],
            "counters": counters,
            "retransmits": sum(r["retransmits"] for r in rows),
            "data_frames": sum(r["data_frames"] for r in rows),
            "queue_waits": waits,
            "retained_rows": (len(metrics.transfers) + len(metrics.rejections)
                              + len(metrics.queue_depth)),
            "trace": tracer.aggregates() if tracer is not None else None,
        }
        if tracer is not None:
            tracer.write_spans(span_path)
        conn.send(("report", final))
    except Exception:  # report the failure to the benchmark, then exit
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# -- benchmark side -------------------------------------------------------------

class ServerProcess(ChildProcess):
    """One spawned server process; its first message is the bound address."""

    def __init__(self, ctx, workload: str, seed: int, trace: bool,
                 span_path: Optional[str]):
        super().__init__(ctx, server_main, (workload, seed, trace, span_path),
                         "ready")
        self.address = self.first

    def stats(self) -> dict:
        self.send("stats")
        return self.expect("stats")

    def wait_finished(self, count: int) -> dict:
        """Poll until the server has settled ``count`` transfers."""
        deadline = time.perf_counter() + SETTLE_S
        while True:
            stats = self.stats()
            if stats["finished"] >= count or time.perf_counter() > deadline:
                return stats
            time.sleep(0.002)

    def stop(self) -> dict:
        """Stop the service gracefully; returns its final report."""
        try:
            self.send("stop")
            return self.expect("report")
        finally:
            self.close()


def read_udp_snmp():
    """``(RcvbufErrors, SndbufErrors)`` from the kernel's UDP counters."""
    try:
        with open("/proc/net/snmp", encoding="ascii") as handle:
            rows = [line.split() for line in handle if line.startswith("Udp:")]
    except OSError:
        return None
    if len(rows) < 2:
        return None
    values = dict(zip(rows[0][1:], (int(v) for v in rows[1][1:])))
    return values.get("RcvbufErrors", 0), values.get("SndbufErrors", 0)


class Puller:
    """The load generator: one client socket, pulls in sequence.

    A pull's latency runs from the request to the moment the client has
    the whole payload and has computed the bytes it must equal (its
    ``service_payload`` call); the linger that follows is excluded from
    latency but not from goodput.
    """

    def __init__(self, address, spec: UdpSpec, tracer: Optional[Tracer] = None):
        from repro.service import udpservice

        self.client = udpservice.UdpServiceClient(
            address, pull_timeout_s=spec.timeout_s, linger_s=spec.linger_s)
        if tracer is not None:
            trace_syscalls(tracer, self.client.sock, "client.recv_wait")
        self._payload_at = 0.0
        self._service_payload = udpservice.service_payload

        def stamped(*args):
            expected = self._service_payload(*args)
            self._payload_at = time.perf_counter()
            return expected

        udpservice.service_payload = stamped
        self.next_stream = 1
        self.ok = 0
        self.ok_bytes = 0
        self.failed = 0
        self.wrong: List[str] = []

    def pull(self, size: int) -> Optional[float]:
        """One verified pull; returns its latency, or None if it failed."""
        stream = self.next_stream
        self.next_stream += 1
        start = time.perf_counter()
        result = self.client.pull(stream, size)
        if result.status != "ok":
            self.failed += 1
            return None
        if not result.payload_ok or result.size_bytes != size:
            self.wrong.append(f"stream {stream}: payload does not match "
                              f"service_payload ({result.size_bytes}/{size} B)")
            return None
        self.ok += 1
        self.ok_bytes += size
        return self._payload_at - start

    def close(self) -> None:
        from repro.service import udpservice

        udpservice.service_payload = self._service_payload
        self.client.close()


def _finish(server: ServerProcess, puller: Puller, wrong: List[str]):
    """Let the server settle every pull, stop it and check its report.

    The client can return before the server has read its final ACK, so
    stopping at once could cut off a pull the client verified.  Returns
    ``(stats, report)``: the server's stats once settled and its final
    report.
    """
    stats = server.wait_finished(puller.ok + puller.failed)
    report = server.stop()
    wrong.extend(puller.wrong)
    summary = report["summary"]
    if summary["ok"] != puller.ok or summary["bytes"] != puller.ok_bytes:
        wrong.append(
            f"server report disagrees: ok={summary['ok']} bytes="
            f"{summary['bytes']}, client verified ok={puller.ok} "
            f"bytes={puller.ok_bytes}")
    return stats, report


def _setup(ctx, spec: UdpSpec, seed: int, tracer: Optional[Tracer] = None,
           span_path: Optional[str] = None):
    """Spawn a server and warm it up; returns (server, puller, setup_s).

    With a ``tracer`` (already installed in this process) the server
    process installs its own.
    """
    server = ServerProcess(ctx, spec.name, seed, tracer is not None, span_path)
    try:
        puller = Puller(server.address, spec, tracer)
        for size in spec.sizes(mix_seed(seed, 1), WARMUP_PULLS):
            puller.pull(size)
        setup_s = time.perf_counter() - server.spawned
    except BaseException:
        server.close()
        raise
    return server, puller, setup_s


def _measure(server: ServerProcess, puller: Puller, spec: UdpSpec, seed: int,
             seconds: float, wrong: List[str]) -> dict:
    warm_ok, warm_bytes, warm_failed = puller.ok, puller.ok_bytes, puller.failed
    sizes = spec.sizes(mix_seed(seed, 2), 4096)
    snmp_before = read_udp_snmp()
    rss_kb = None
    pulls = 0
    slicer = Slicer(seconds, lambda: server.stats()["cpu_s"])
    while slicer.running:
        size = sizes[pulls % len(sizes)]
        latency = puller.pull(size)
        pulls += 1
        if latency is None:
            slicer.record(0, 0, ())
        else:
            slicer.record(size, 1, (latency,))
        if pulls == spec.rss_at_pulls:
            rss_kb = server.stats()["maxrss_kb"]
    slices = slicer.finish()
    after, report = _finish(server, puller, wrong)
    snmp_after = read_udp_snmp()
    kernel = (None if snmp_before is None or snmp_after is None
              else [a - b for a, b in zip(snmp_after, snmp_before)])
    return {
        "attempted": pulls,
        "failed": puller.failed - warm_failed,
        "ok": puller.ok - warm_ok,
        "bytes": puller.ok_bytes - warm_bytes,
        "total_bytes": puller.ok_bytes,
        "wall_s": slicer.wall_s,
        "slices": slices,
        "rss_kb": rss_kb if rss_kb is not None else after["maxrss_kb"],
        "rss_at_pulls": spec.rss_at_pulls if rss_kb is not None else pulls,
        "kernel": kernel,
        "report": report,
    }


def run_udp(ctx, workload: str, seed: int, seconds: float, trace: bool,
            setup_repeats: int, span_dir: str) -> dict:
    """Run one UDP workload; returns raw measurements for ``run.py``."""
    spec = UDP_SPECS[workload]
    wrong: List[str] = []
    if not trace:
        setups = []
        for repeat in range(setup_repeats):
            server, puller, setup_s = _setup(ctx, spec, seed)
            setups.append(setup_s)
            if repeat == setup_repeats - 1:
                break
            _finish(server, puller, wrong)
            puller.close()
        try:
            result = _measure(server, puller, spec, seed, seconds, wrong)
        finally:
            server.close()
            puller.close()
        result["setups_s"] = setups
        result["wrong"] = wrong
        return result

    # Traced run: an untraced half for the overhead baseline, then a
    # traced half with wrappers in both processes.
    server, puller, _ = _setup(ctx, spec, seed)
    try:
        plain = _measure(server, puller, spec, seed, seconds / 2, wrong)
    finally:
        server.close()
        puller.close()
    tracer = Tracer()
    install_client(tracer)
    span_path = os.path.join(span_dir, f"{workload}-server-spans.tsv")
    try:
        server, puller, _ = _setup(ctx, spec, seed, tracer, span_path)
        try:
            traced = _measure(server, puller, spec, seed, seconds / 2, wrong)
        finally:
            server.close()
            puller.close()
    finally:
        tracer.unpatch()
    tracer.write_spans(os.path.join(span_dir, f"{workload}-client-spans.tsv"))
    traced["client_trace"] = tracer.aggregates()
    traced["plain"] = plain
    traced["wrong"] = wrong
    return traced
