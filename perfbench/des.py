"""DES workloads: each set-up and each measured run in a fresh spawned process.

A child imports the program, builds its seeded inputs and runs a small
warm-up simulation (which builds the simulated network) before it
reports ready, so set-up time covers everything up to the first
servable simulation.  The warm-up outcome's digest must be identical in
every child of one benchmark run: the simulation is deterministic for a
given seed.  The measured child then runs simulations back to back for
the requested seconds, checking every outcome.  ``des_paper`` repeats
one seeded cycle of ``run_transfer`` calls with their loss draws, so its
cycles differ only in how fast the host ran them (perfbench/slices.py
ranks them by that) and every cycle's outcome must be identical to the
first.  ``des_service`` gives each run a fresh seeded input, so a run's
result averages over many arrival patterns and size mixes.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import time
import traceback
from typing import List, Optional

from perfbench.child import ChildProcess, Wrong
from perfbench.slices import Slicer
from perfbench.spans import Tracer, install_des

#: des_paper: the paper's protocols and Table sizes under p_n = 0.01.
PAPER_PROTOCOLS = (("blast", {"strategy": "selective"}),
                   ("sliding_window", {}),
                   ("stop_and_wait", {}))
PAPER_SIZES = (1024, 4096, 16384, 65536)
PAPER_LOSS_P = 0.01

#: des_service: Poisson arrivals of page-cluster reads, open loop.
SERVICE_ARRIVALS = 1024
SERVICE_SPAN_S = 4.0
SERVICE_WARMUP_ARRIVALS = 32


def _mix(*parts: int) -> int:
    from repro.parallel.pool import mix_seed

    seed = parts[0]
    for part in parts[1:]:
        seed = mix_seed(seed, part)
    return seed


# -- des_paper ------------------------------------------------------------------

def _paper_cycle(seed: int, cycle: int, payloads, sink: List[float],
                 totals: dict, digest) -> int:
    """One pass over every (protocol, size) pair; returns bytes verified."""
    from repro.core.runner import run_transfer
    from repro.simnet.errors import BernoulliErrors

    verified = 0
    index = 0
    for protocol, kwargs in PAPER_PROTOCOLS:
        for size in PAPER_SIZES:
            index += 1
            loss = BernoulliErrors(PAPER_LOSS_P, seed=_mix(seed, cycle, index))
            start = time.perf_counter()
            result = run_transfer(protocol, payloads[size], error_model=loss,
                                  **kwargs)
            sink.append(time.perf_counter() - start)
            if not (result.ok and result.data_intact):
                raise Wrong(f"{protocol} {size} B (cycle {cycle}): "
                            "delivered data differs from the sent data")
            stats = result.stats
            digest.update(repr((protocol, size, result.elapsed_s, stats.rounds,
                                stats.data_frames_sent,
                                stats.retransmitted_data_frames,
                                stats.timeouts)).encode())
            totals["rounds"] += stats.rounds
            totals["data_frames"] += stats.data_frames_sent
            totals["retransmitted"] += stats.retransmitted_data_frames
            verified += size
    return verified


# -- des_service ----------------------------------------------------------------

def _service_inputs(seed: int, count: int, span_s: float):
    from repro.workloads.sizes import page_cluster_sizes

    sizes = page_cluster_sizes(count=count, seed=seed)
    rng = random.Random(_mix(seed, 1))
    arrivals, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(count / span_s)
        arrivals.append(now)
    return sizes, arrivals


def _service_run(seed: int, count: int, span_s: float, digest) -> dict:
    from repro.service.engine import ServiceConfig
    from repro.service.simservice import run_des_service

    sizes, arrivals = _service_inputs(seed, count, span_s)
    config = ServiceConfig(policy="rr", max_active=256, max_queue=count)
    result = run_des_service(sizes, arrivals, config)
    if not result.ok or result.completed != count or result.rejected:
        bad = {s: v for s, v in result.client_status.items() if v != "ok"}
        raise Wrong(f"des_service seed {seed}: ok={result.ok} completed="
                    f"{result.completed}/{count} rejected={result.rejected} "
                    f"client status {dict(list(bad.items())[:5])}")
    digest.update(result.report_json.encode())
    rows = result.report["transfers"]
    return {
        "bytes": sum(sizes),
        "retransmits": sum(r["retransmits"] for r in rows),
        "data_frames": sum(r["data_frames"] for r in rows),
        "queue_waits": [r["queue_wait_s"] for r in rows
                        if r["queue_wait_s"] is not None],
        "max_queue_depth": result.report["summary"]["max_queue_depth"],
        "retained_rows": (len(rows) + len(result.report["rejections"])
                          + len(result.report["queue_depth"])),
    }


def _stream_lifetimes(sink: List[float]) -> None:
    """Record each simulated stream's wall time from submission to finish."""
    from repro.service.metrics import ServiceMetrics

    submitted = {}
    on_submitted = ServiceMetrics.on_submitted
    on_finished = ServiceMetrics.on_finished

    def record_submitted(self, stream_id, client, now):
        submitted[id(self), stream_id] = time.perf_counter()
        return on_submitted(self, stream_id, client, now)

    def record_finished(self, stream_id, outcome, now):
        began = submitted.pop((id(self), stream_id), None)
        if began is not None:
            sink.append(time.perf_counter() - began)
        return on_finished(self, stream_id, outcome, now)

    ServiceMetrics.on_submitted = record_submitted
    ServiceMetrics.on_finished = record_finished


# -- child process -------------------------------------------------------------

def des_main(conn, workload: str, seed: int, seconds: float, trace: bool,
             measure: bool, span_path: Optional[str]) -> None:
    """Entry point of a spawned DES process."""
    try:
        latencies: List[float] = []
        if workload == "des_paper":
            rng = random.Random(_mix(seed, 7))
            payloads = {size: rng.randbytes(size) for size in PAPER_SIZES}
            warm = hashlib.sha256()
            _paper_cycle(seed, 0, payloads, [], {"rounds": 0, "data_frames": 0,
                                                 "retransmitted": 0}, warm)
        else:
            _stream_lifetimes(latencies)
            warm = hashlib.sha256()
            _service_run(_mix(seed, 0), SERVICE_WARMUP_ARRIVALS,
                         SERVICE_WARMUP_ARRIVALS * SERVICE_SPAN_S
                         / SERVICE_ARRIVALS, warm)
            latencies.clear()
        conn.send(("ready", warm.hexdigest()))
        if not measure:
            return
        if not conn.poll(ChildProcess.timeout_s) or conn.recv() != "go":
            raise RuntimeError("no go message from the benchmark")
        tracer = Tracer() if trace else None
        if tracer is not None:
            install_des(tracer)
        totals = {"rounds": 0, "data_frames": 0, "retransmitted": 0}
        digests, runs = [], []
        verified = transfers = 0
        slicer = Slicer(seconds, time.process_time)
        while not digests or slicer.running:
            digest = hashlib.sha256()
            done = len(latencies)
            if workload == "des_paper":
                nbytes = _paper_cycle(seed, 1, payloads, latencies, totals,
                                      digest)
                count = len(PAPER_PROTOCOLS) * len(PAPER_SIZES)
            else:
                run = _service_run(_mix(seed, len(digests) + 1),
                                   SERVICE_ARRIVALS, SERVICE_SPAN_S, digest)
                runs.append(run)
                nbytes, count = run["bytes"], SERVICE_ARRIVALS
            verified += nbytes
            transfers += count
            slicer.record(nbytes, count, latencies[done:])
            digests.append(digest.hexdigest())
            if workload == "des_paper" and digests[-1] != digests[0]:
                raise Wrong(f"des_paper seed {seed}: cycle {len(digests)} of "
                            "the same inputs gave a different outcome")
        slices = slicer.finish()
        if tracer is not None:
            tracer.unpatch()
            tracer.write_spans(span_path)
        conn.send(("result", {
            "runs": len(digests),
            "transfers": transfers,
            "bytes": verified,
            "wall_s": slicer.wall_s,
            "slices": slices,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "first_digest": digests[0],
            "service_runs": runs,
            "paper_totals": totals,
            "trace": tracer.aggregates() if tracer is not None else None,
        }))
    except Wrong as wrong:
        conn.send(("wrong", str(wrong)))
    except Exception:  # report the failure to the benchmark, then exit
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# -- benchmark side -------------------------------------------------------------

class DesProcess(ChildProcess):
    """One spawned DES child; its first message is the warm-up digest."""

    def __init__(self, ctx, workload: str, seed: int, seconds: float,
                 trace: bool, measure: bool, span_path: Optional[str] = None):
        super().__init__(ctx, des_main, (workload, seed, seconds, trace,
                                         measure, span_path), "ready")
        self.setup_s = time.perf_counter() - self.spawned
        self.warm_digest = self.first
        self._seconds = seconds

    def measure(self) -> dict:
        try:
            self.send("go")
            # The last simulation may run past the measured seconds.
            return self.expect("result", self._seconds + self.timeout_s)
        finally:
            self.close()


def run_des(ctx, workload: str, seed: int, seconds: float, trace: bool,
            setup_repeats: int, span_dir: str) -> dict:
    """Run one DES workload; returns raw measurements for ``run.py``."""
    wrong: List[str] = []
    try:
        if not trace:
            setups, digests = [], set()
            for repeat in range(setup_repeats):
                child = DesProcess(ctx, workload, seed, seconds, False,
                                   measure=repeat == setup_repeats - 1)
                setups.append(child.setup_s)
                digests.add(child.warm_digest)
                if repeat < setup_repeats - 1:
                    child.close()
            if len(digests) != 1:
                wrong.append(f"warm-up digests differ across processes for "
                             f"seed {seed}: {sorted(digests)}")
            result = child.measure()
            result["setups_s"] = setups
        else:
            plain = DesProcess(ctx, workload, seed, seconds / 2, False,
                               measure=True).measure()
            span_path = os.path.join(span_dir, f"{workload}-spans.tsv")
            result = DesProcess(ctx, workload, seed, seconds / 2, True,
                                measure=True, span_path=span_path).measure()
            if result["first_digest"] != plain["first_digest"]:
                wrong.append("the traced simulation's outcome differs from "
                             "the untraced one for the same inputs")
            result["plain"] = plain
    except Wrong as failure:
        wrong.append(str(failure))
        return {"wrong": wrong}
    result["wrong"] = wrong
    return result
