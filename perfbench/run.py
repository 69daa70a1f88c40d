"""Outside-in benchmark of the transfer service and the paper's simulations.

Usage (from the repository root)::

    python3 perfbench/run.py --workload udp_pages --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
half the time untraced and half with span wrappers installed, and
prints the per-layer split plus the tracing overhead.  Every transfer's
output is checked; a wrong payload, a server report that disagrees with
the client, or a simulation digest that does not repeat fails the run
(exit 1) instead of reporting a number.  The last line of standard
output is one JSON object; the lines before it name every metric with
its unit.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 7

#: Workloads whose end-to-end metrics pool every slice.  udp_lossy's
#: wall time is mostly retransmission-timer waits, and its half-second
#: slices differ more in how many frames were lost than in host speed:
#: keeping its cheapest slices would keep its luckiest ones.  A
#: des_service slice is one run of about two seconds on a fresh input;
#: the inputs differ too much for one seed's input to stand for the
#: workload, so the run averages over all of them.
POOL_ALL = {"udp_lossy", "des_service"}

#: Workload names and metric names and units, as BENCHMARK.json lists
#: them.  Every workload reports every end-to-end metric with --trace 0
#: and every per-layer metric with --trace 1 (a layer the workload does
#: not run reads 0).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def tail_fraction(count: int) -> float:
    """Highest percentile with at least ten samples beyond it, capped at p99."""
    return min(0.99, max(0.5, 1.0 - 10.0 / count))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- end-to-end ----------------------------------------------------------------

def end_to_end(workload: str, raw: dict):
    """Returns (metrics, notes) for an untraced run.

    Every metric but set-up and memory is computed from the pooled work
    of the run's least disturbed slices (perfbench/slices.py).
    """
    from perfbench.slices import BEST_SHARE, best_slices

    best = best_slices(raw["slices"], 1.0 if workload in POOL_ALL
                       else BEST_SHARE)
    wall_s = sum(s["wall_s"] for s in best)
    nbytes = sum(s["bytes"] for s in best)
    latencies_ms = [t * 1000.0 for s in best for t in s["latencies_s"]]
    tail = tail_fraction(len(latencies_ms))
    metrics = {
        "setup_s": statistics.median(raw["setups_s"]),
        "goodput_MBps": nbytes / 1e6 / wall_s,
        "transfers_per_s": sum(s["transfers"] for s in best) / wall_s,
        "transfer_p50_ms": percentile(latencies_ms, 0.5),
        "transfer_p99_ms": percentile(latencies_ms, tail),
        "server_cpu_ms_per_MB": sum(s["cpu_s"] for s in best) * 1000.0
                                / (nbytes / 1e6),
        "peak_rss_MB": (raw["rss_kb"] if "rss_kb" in raw
                        else raw["maxrss_kb"]) / 1024.0,
    }
    notes = [
        f"samples: {len(latencies_ms)} transfer latencies in the {len(best)} "
        f"least disturbed of {len(raw['slices'])} slices "
        f"({wall_s:.2f} of {raw['wall_s']:.2f} s); transfer_p99_ms is the "
        f"p{tail * 100:.2f} (at least ten samples beyond it)",
        "setup_s: median of " + ", ".join(f"{s:.4f}" for s in raw["setups_s"]),
    ]
    if workload.startswith("udp"):
        notes.append(f"peak_rss_MB read after {raw['rss_at_pulls']} measured pulls")
        notes.extend(_udp_notes(raw))
    else:
        notes.append(f"{raw['runs']} simulation runs, {raw['transfers']} "
                     f"simulated transfers, {raw['bytes']} payload bytes")
    return metrics, notes


def _udp_notes(raw: dict):
    counters = raw["report"]["counters"]
    kernel = raw["kernel"]
    return [
        "server iobatch: datagrams_in={datagrams_in} recv_batches={recv_batches} "
        "datagrams_out={datagrams_out} send_drops={send_drops}".format(**counters),
        "server faults: datagrams_sent={faults_datagrams_sent} "
        "datagrams_dropped={faults_datagrams_dropped} "
        "recv_dropped={faults_recv_dropped} injected={faults_injected}".format(
            **counters),
        ("loopback kernel: unavailable" if kernel is None else
         f"loopback kernel: RcvbufErrors +{kernel[0]} SndbufErrors +{kernel[1]}"),
    ]


# -- per-layer ------------------------------------------------------------------

def per_layer(workload: str, raw: dict, aggregates: list) -> dict:
    """Per-layer metrics of a traced run, normalised per verified MB."""
    from perfbench.spans import merge_aggregates

    merged = merge_aggregates(aggregates)
    calls, self_s, counts = merged["calls"], merged["self_s"], merged["counts"]
    udp = workload.startswith("udp")
    mb = (raw["total_bytes"] if udp else raw["bytes"]) / 1e6

    def ms(name):
        return self_s.get(name, 0.0) * 1000.0 / mb

    def per_mb(value):
        return value / mb

    values = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            values[name] = ms(name[: -len(".self_ms")])
    values["iobatch.send.calls"] = per_mb(calls.get("iobatch.send", 0))
    values["wire.decode.calls"] = per_mb(calls.get("wire.decode", 0))
    values["syscall.sendto.calls"] = per_mb(calls.get("syscall.sendto", 0))
    values["machines.timer_stalls"] = per_mb(counts.get("machines.timer_stalls", 0))
    grants = calls.get("scheduler.grants", 0)
    values["scheduler.grants.calls"] = per_mb(grants)
    values["scheduler.frames_per_grants_call"] = _ratio(
        counts.get("scheduler.frames_granted", 0), grants)
    values["sim.events"] = per_mb(counts.get("sim.events", 0))
    values["simnet.frames"] = per_mb(calls.get("simnet.interface_send", 0))

    if udp:
        report = raw["report"]
        counters = report["counters"]
        values["iobatch.datagrams_per_batch"] = _ratio(
            counters["datagrams_in"], counters["recv_batches"])
        values["iobatch.send_drops"] = per_mb(counters["send_drops"])
        values["faults.dropped"] = per_mb(counters["faults_datagrams_dropped"]
                                          + counters["faults_recv_dropped"])
        values["machines.retransmit_ratio"] = _ratio(report["retransmits"],
                                                     report["data_frames"])
        waits = report["queue_waits"]
        values["engine.queue_wait_p50_s"] = percentile(waits, 0.5) if waits else 0.0
        values["metrics.retained_rows"] = _ratio(report["retained_rows"],
                                                 report["summary"]["transfers"])
        values["udpservice.wait_ms"] = ms("udpservice.serve")
        values["udpservice.wakeups"] = per_mb(calls.get("iobatch.recv_batch", 0))
        if raw["kernel"] is not None:
            values["kernel.rcvbuf_errors"] = per_mb(raw["kernel"][0])
            values["kernel.sndbuf_errors"] = per_mb(raw["kernel"][1])
        plain_rate = raw["plain"]["bytes"] / raw["plain"]["wall_s"]
        traced_rate = raw["bytes"] / raw["wall_s"]
    else:
        runs = raw["service_runs"]
        if runs:
            values["machines.retransmit_ratio"] = _ratio(
                sum(r["retransmits"] for r in runs),
                sum(r["data_frames"] for r in runs))
            waits = [w for r in runs for w in r["queue_waits"]]
            values["engine.queue_wait_p50_s"] = percentile(waits, 0.5)
            values["metrics.retained_rows"] = _ratio(
                sum(r["retained_rows"] for r in runs), raw["transfers"])
        totals = raw["paper_totals"]
        if totals["data_frames"]:
            values["core.rounds_per_transfer"] = _ratio(totals["rounds"],
                                                        raw["transfers"])
            values["core.retransmit_ratio"] = _ratio(totals["retransmitted"],
                                                     totals["data_frames"])
        plain_rate = raw["plain"]["transfers"] / raw["plain"]["wall_s"]
        traced_rate = raw["transfers"] / raw["wall_s"]
    values["trace.overhead"] = _ratio(plain_rate, traced_rate) - 1.0
    return values


# -- main -----------------------------------------------------------------------

def _run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.des import run_des
    from perfbench.udp import run_udp

    ctx = multiprocessing.get_context("spawn")
    span_dir = str(ROOT / ".perfbench")
    if trace:
        os.makedirs(span_dir, exist_ok=True)
    runner = run_udp if workload.startswith("udp") else run_des
    try:
        return runner(ctx, workload, seed, seconds, trace, SETUP_REPEATS,
                      span_dir)
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process that starting a spawned child starts.

    Left alone, it outlives this process by a moment and, orphaned,
    stays behind as an unreaped zombie.  The standard library has no
    public way to stop it; ``_stop`` closes its pipe and waits for it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _print_result(correct: bool, attempted: int, failed: int,
                  metrics: dict, units: dict) -> None:
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(payload), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    print(f"workload {args.workload}: {WORKLOADS[args.workload]}; seed "
          f"{args.seed}; {args.seconds:g} s; trace {int(trace)}", flush=True)
    raw = _run(args.workload, args.seed, args.seconds, trace)
    wrong = raw.get("wrong", [])
    udp = args.workload.startswith("udp")
    if "wall_s" in raw:
        attempted = raw["attempted"] if udp else raw["transfers"]
        failed = raw["failed"] if udp else 0
        if trace:
            attempted += raw["plain"]["attempted"] if udp else raw["plain"]["transfers"]
            failed += raw["plain"]["failed"] if udp else 0
    else:
        attempted, failed = 1, 1
    if wrong:
        for problem in wrong[:20]:
            print(f"CORRECTNESS: {problem}", file=sys.stderr)
        if len(wrong) > 20:
            print(f"CORRECTNESS: ... and {len(wrong) - 20} more", file=sys.stderr)
        _print_result(False, attempted, failed, {}, {})
        return 1

    print(f"failed_share {_ratio(failed, attempted):.6f} "
          f"({failed} of {attempted} transfers)")
    if trace:
        parts = [raw["trace"]] if not udp else [raw["report"]["trace"],
                                               raw["client_trace"]]
        metrics = per_layer(args.workload, raw, parts)
        units = PER_LAYER
        if udp:
            for note in _udp_notes(raw):
                print(note)
    else:
        metrics, notes = end_to_end(args.workload, raw)
        units = END_TO_END
        for note in notes:
            print(note)
    if set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    _print_result(True, attempted, failed, metrics, units)
    return 0


sys.path[:1] = [str(SRC), str(ROOT)]

if __name__ == "__main__":
    sys.exit(main())
