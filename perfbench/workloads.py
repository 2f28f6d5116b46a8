"""The workloads: bulk-flat and bulk-zipf.

:func:`run_bulk` returns a :class:`Result`.  Operations are output rows;
a wrong row is a failed one.  The untraced run yields the end-to-end
metrics, the traced run the per-layer ones, the serve layers among them
from a session of the run's own batches against a daemon child.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import children
import inputs
import pipeline
import serveload
from spans import NullTracer, Tracer
from yardstick import REF_S

from repro.engine import Engine

#: Rows per bulk batch (one ``format_buffer`` / ``parse_buffer`` /
#: ``format_printf`` call each).
BULK_ROWS = 256
#: Fresh interpreters started per run to time set-up.
SETUP_REPEATS = 9
#: Values converted by each set-up probe.
SETUP_ROWS = 16
#: Pings after the load, for the transport floor.
PINGS = 200
#: Bulk traced runs send this many of their batches to a daemon, paced
#: at this rate, for the serve-layer figures.
SESSION_REQUESTS = 64
SESSION_RATE = 40.0
#: Then the session's requests go this many times over through the
#: daemon in a closed loop, ``DEPTH`` in flight on each connection, so
#: the batcher has requests to coalesce.
BURST_PASSES = 2
DEPTH = 8
#: The load generator fell behind its schedule if more than this share
#: of the paced sends left over :data:`LATE_LIMIT_S` late.
LATE_LIMIT_S = 0.025
LATE_SHARE = 0.05
#: Fewest measured bulk rounds, however short the run.
MIN_ROUNDS = 4

NULL = NullTracer()


@dataclass
class Result:
    """One run: per-phase ``[attempted, failed, first reason]``, the
    metrics, the spans of a traced run and, untraced, the end-to-end
    figures before host adjustment."""
    phases: dict
    metrics: dict
    tracer: Optional[Tracer] = None
    unadjusted: dict = field(default_factory=dict)


class RunInvalid(Exception):
    """The run cannot stand as a measurement (the load generator of the
    traced session fell behind its schedule)."""


def _phase(phases, name, attempted, failed, why):
    p = phases.setdefault(name, [0, 0, None])
    p[0] += attempted
    p[1] += failed
    p[2] = p[2] or why


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ms(xs) -> float:
    return statistics.median(xs) * 1e3


def _bulk_batch(kind: str, seed: int, index: int, head) -> pipeline.Batch:
    if kind == "flat":
        return pipeline.Batch(
            inputs.flat_batch(seed, index, BULK_ROWS).tobytes(),
            long=inputs.long_literals(seed, index,
                                      BULK_ROWS // inputs.LONG_EVERY),
            long_every=inputs.LONG_EVERY)
    return pipeline.Batch(head.batch("bulk", index, BULK_ROWS).tobytes())


def _bulk_setup(src, kind, seed, head, phases) -> list:
    """``(seconds, child report)`` of each fresh interpreter."""
    reports = []
    for i in range(SETUP_REPEATS):
        packed = _bulk_batch(kind, seed, -1 - i, head).packed
        elapsed, failed, report = children.bulk_setup(
            src, packed[:8 * SETUP_ROWS])
        _phase(phases, "setup", 3 * SETUP_ROWS, failed,
               "set-up conversion wrong" if failed else None)
        reports.append((elapsed, report))
    return reports


def run_bulk(kind: str, src: str, seed: int, seconds: float,
             traced: bool):
    head = inputs.ZipfHead(seed) if kind == "zipf" else None
    phases = {}
    setup = _bulk_setup(src, kind, seed, head, phases)
    eng = Engine()
    tracer = Tracer() if traced else None
    probe = pipeline.LayerProbe() if traced else None
    # Round 0 warms the engine (lazy tables, first imports); it is
    # checked but not timed.
    warm = _bulk_batch(kind, seed, 0, head)
    values = warm.values
    _phase(phases, "warm-up",
           *pipeline.check_calls(values,
                                 pipeline.run_calls(NULL, eng, warm,
                                                    values, 0)))
    before = eng.stats()
    # Nothing allocated so far is garbage the timed calls should pay
    # to scan again.
    gc.collect()
    gc.freeze()
    rounds = {False: [], True: []}  # traced? -> [Timing]
    session = []
    stop = time.perf_counter() + seconds
    index = 1
    while time.perf_counter() < stop or index <= MIN_ROUNDS:
        batch = _bulk_batch(kind, seed, index, head)
        values = batch.values
        on = traced and index % 2 == 1
        calls = pipeline.run_calls(tracer if on else NULL, eng, batch,
                                   values, index)
        _phase(phases, "measure", *pipeline.check_calls(values, calls))
        if on:
            probe.run(tracer, batch, values, calls, index)
            if len(session) < SESSION_REQUESTS:
                session += [serveload.format_request(batch.packed),
                            serveload.read_request(calls.parse_in)]
        rounds[on].append(calls.timing())
        index += 1
    if not traced:
        return Result(
            phases, dict(setup_s=_setup_s(setup, True), peak_rss_mb=_rss_mb(),
                         **_bulk_e2e(rounds[False], True)),
            unadjusted=dict(setup_s=_setup_s(setup, False),
                            **_bulk_e2e(rounds[False], False)))
    metrics = pipeline.layer_metrics(tracer, probe)
    metrics.update(pipeline.counter_metrics(
        pipeline.counter_delta(eng.stats(), before)))
    metrics.update(_setup_layers(setup))
    inproc = [t for c in rounds[True] for t in (c.format_s, c.parse_s)]
    metrics.update(_session(src, seed, session, inproc, tracer, phases))
    metrics["trace.overhead_share"] = _overhead(rounds)
    metrics["host.yardstick_us"] = statistics.median(
        c.yard_s for c in rounds[True]) * 1e6
    return Result(phases, metrics, tracer)


def _bulk_e2e(calls, adjust: bool) -> dict:
    """Per-batch rates of the measured rounds, each host-adjusted by its
    round's yardstick when ``adjust``."""
    def host(c):
        return c.host if adjust else 1.0

    return {
        "format_mb_s": statistics.median(
            c.format_bytes / c.format_s * host(c) for c in calls) / 1e6,
        "parse_mb_s": statistics.median(
            c.parse_bytes / c.parse_s * host(c) for c in calls) / 1e6,
        "fixed_kvalues_s": statistics.median(
            c.rows / c.fixed_s * host(c) for c in calls) / 1e3,
    }


def _setup_s(reports, adjust: bool) -> float:
    """Median set-up time of the fresh interpreters, each host-adjusted
    by the yardstick its own process timed when ``adjust``."""
    return statistics.median(
        t * (REF_S / r["yard_s"] if adjust else 1.0) for t, r in reports)


def _overhead(rounds) -> float:
    """Traced rounds' median host-adjusted call time over untraced
    rounds', minus 1."""
    def med(calls):
        return statistics.median((c.format_s + c.parse_s + c.fixed_s)
                                 / c.host for c in calls)
    return med(rounds[True]) / med(rounds[False]) - 1


def _setup_layers(reports) -> dict:
    """Set-up split into import, first table build and first conversion;
    the remainder is interpreter start and the pipe back."""
    return {
        "engine.tables.first_call_ms": statistics.median(
            r["tables_s"] for _, r in reports) * 1e3,
        "setup.import_ms": statistics.median(
            r["import_s"] for _, r in reports) * 1e3,
        "setup.first_conversion_ms": statistics.median(
            r["first_s"] for _, r in reports) * 1e3,
        "trace.setup_s.unattributed_share": statistics.median(
            1 - (r["import_s"] + r["tables_s"] + r["first_s"]) / t
            for t, r in reports),
    }


def _daemon_self(metrics: dict, req_ms: float, inproc) -> None:
    """The daemon's own share of the median request: what the transport
    floor, the framing and the same conversion in-process leave over."""
    inproc_us = statistics.median(inproc) * 1e6
    self_ms = (req_ms - metrics["serve.client.ping_ms"]
               - (inproc_us + metrics["serve.protocol.us_per_frame"]) / 1e3)
    metrics.update({
        "serve.inproc.us_per_request": inproc_us,
        "serve.daemon.self_ms": self_ms,
        "trace.req_p50_ms.unattributed_share": self_ms / req_ms,
    })


def _session(src, seed, reqs, inproc, tracer, phases) -> dict:
    """Bulk traced runs: the workload's own batches as requests to a
    daemon, first paced (the transport floor, framing, the daemon's own
    time per request), then in a closed-loop burst (the batcher)."""
    daemon = children.Daemon(src)
    try:
        schedule = inputs.poisson_schedule(seed, SESSION_RATE, len(reqs))
        paced = asyncio.run(serveload.paced(daemon.port, reqs, schedule,
                                            tracer))
        pings = asyncio.run(serveload.pings(daemon.port, PINGS))
        before = daemon.stats()
        burst, elapsed = asyncio.run(serveload.closed_loop(
            daemon.port, reqs, BURST_PASSES * len(reqs), DEPTH))
        report = daemon.stop()
    finally:
        daemon.kill()
    _phase(phases, "session-paced", *serveload.check_outcomes(reqs, paced))
    _phase(phases, "session-burst", *serveload.check_outcomes(reqs, burst))
    late = [o.late for o in paced]
    if sum(x > LATE_LIMIT_S for x in late) > LATE_SHARE * len(late):
        raise RunInvalid(
            "load generator fell behind its schedule: "
            f"{sum(x > LATE_LIMIT_S for x in late)} of {len(late)} paced "
            f"sends over {LATE_LIMIT_S * 1e3:.0f} ms late")
    lat = [o.latency for o in paced]
    metrics = {
        "serve.client.ping_ms": _ms(pings),
        "serve.protocol.us_per_frame":
            serveload.protocol_us_per_frame(reqs, paced),
        "serve.paced.req_max_ms": max(lat) * 1e3,
        "loadgen.late_max_ms": max(late) * 1e3,
        "serve.burst.req_per_s": len(burst) / elapsed,
    }
    metrics.update(serveload.daemon_metrics(report, before))
    _daemon_self(metrics, _ms(lat), inproc)
    return metrics
