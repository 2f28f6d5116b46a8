"""Load generation against the daemon child: a paced open-loop Poisson
phase, a closed-loop burst, pings, and the checks of every response.

All load comes from this one process over at most two connections.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from array import array
from dataclasses import dataclass
from typing import List, Optional

import oracles

from repro.errors import ReproError
from repro.serve import protocol
from repro.serve.client import AsyncServeClient
from repro.serve.protocol import OP_FORMAT, OP_READ

CONNECTIONS = 2


@dataclass
class Request:
    op: int
    payload: bytes
    ref: list  # values to format, or literals to read

    def check(self, response: bytes) -> tuple:
        """``(failed rows, first reason)`` of one response."""
        if self.op == OP_FORMAT:
            return oracles.check_plane_shortest(self.ref, response)
        return oracles.check_plane_read(self.ref,
                                        array("Q", response).tolist())


def format_request(packed: bytes) -> Request:
    return Request(OP_FORMAT, packed, array("d", packed).tolist())


def read_request(plane: bytes) -> Request:
    return Request(OP_READ, plane, plane.decode("ascii").split("\n")[:-1])


@dataclass
class Outcome:
    index: int          # into the request list
    latency: float      # seconds from the scheduled (or actual) send
    late: float         # seconds the send ran behind its schedule
    response: Optional[bytes]
    error: Optional[str] = None


async def _send(client, req: Request) -> bytes:
    if req.op == OP_FORMAT:
        return await client.format(req.payload)
    return await client.read(req.payload)


async def _connect(port: int) -> list:
    return [await AsyncServeClient.connect("127.0.0.1", port)
            for _ in range(CONNECTIONS)]


async def _close(clients) -> None:
    for c in clients:
        await c.close()


async def paced(port: int, reqs: List[Request], schedule: List[float],
                tracer=None) -> List[Outcome]:
    """Open loop: request ``i`` is sent at ``schedule[i]`` seconds
    whatever the replies, round-robin over the connections, and timed
    from when it was due; with a tracer, each request gets spans."""
    clients = await _connect(port)
    loop = asyncio.get_running_loop()
    out: List[Outcome] = []

    async def one(i: int, due: float) -> None:
        late = loop.time() - due
        try:
            resp, err = await _send(clients[i % CONNECTIONS], reqs[i]), None
        except ReproError as exc:
            resp, err = None, f"{type(exc).__name__}: {exc}"
        end = loop.time()
        out.append(Outcome(i, end - due, late, resp, err))
        if tracer is not None:
            root = tracer.add("serve.request", due, end, request=i)
            tracer.add("serve.client.send", due + late, end, root, i)

    tasks = []
    t0 = loop.time()
    try:
        for i, at in enumerate(schedule):
            delay = t0 + at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(one(i, t0 + at)))
        await asyncio.gather(*tasks)
    finally:
        await _close(clients)
    return out


async def closed_loop(port: int, reqs: List[Request], total: int,
                      depth: int) -> tuple:
    """Closed loop: ``depth`` requests in flight on each connection,
    cycling through ``reqs`` until ``total`` were sent;
    ``(outcomes, elapsed seconds)``."""
    clients = await _connect(port)
    out: List[Outcome] = []
    clock = asyncio.get_running_loop().time
    sent = itertools.count()  # shared, so format and read alternate

    async def lane(k: int) -> None:
        client = clients[k % CONNECTIONS]
        for n in sent:
            if n >= total:
                return
            j = n % len(reqs)
            t = clock()
            try:
                resp, err = await _send(client, reqs[j]), None
            except ReproError as exc:
                resp, err = None, f"{type(exc).__name__}: {exc}"
            out.append(Outcome(j, clock() - t, 0.0, resp, err))

    start = clock()
    try:
        await asyncio.gather(*(lane(k) for k in range(CONNECTIONS * depth)))
        elapsed = clock() - start
    finally:
        await _close(clients)
    return out, elapsed


async def pings(port: int, count: int) -> List[float]:
    """Round trips of the body-less PING op, one at a time."""
    client = await AsyncServeClient.connect("127.0.0.1", port)
    try:
        out = []
        for _ in range(count):
            t = time.perf_counter()
            await client.ping()
            out.append(time.perf_counter() - t)
        return out
    finally:
        await client.close()


def check_outcomes(reqs: List[Request], outcomes: List[Outcome]) -> tuple:
    """``(attempted rows, failed rows, first reason)``.  A response equal
    to one already checked for the same request is not checked again."""
    verified = {}
    attempted = failed = 0
    why = None
    for o in outcomes:
        req = reqs[o.index]
        attempted += len(req.ref)
        if o.response is None:
            failed += len(req.ref)
            why = why or o.error
            continue
        if verified.get(o.index) == o.response:
            continue
        f, w = req.check(o.response)
        if f:
            failed += f
            why = why or w
        else:
            verified[o.index] = o.response
    return attempted, failed, why


def protocol_us_per_frame(reqs: List[Request], outcomes) -> float:
    """In-process cost of framing a request and unframing its reply."""
    pairs = [(reqs[o.index], protocol.encode_response(o.response)[4:])
             for o in outcomes if o.response is not None]
    start = time.perf_counter()
    for req, body in pairs:
        protocol.encode_request(req.op, req.payload)
        protocol.parse_response(body)
    return (time.perf_counter() - start) / max(len(pairs), 1) * 1e6


def daemon_metrics(report: dict, before: dict) -> dict:
    """Batcher ratios from the daemon's own counters over the burst
    (``report`` less ``before``; ``max_batch`` is the session's), and the
    pool memo's hit ratio over the paced phase (``before``)."""
    s, b, p = report["stats"], before["stats"], before["pool_stats"]
    batches = s["batches"] - b["batches"]
    hits, misses = p.get("cache_hits", 0), p.get("cache_misses", 0)
    return {
        "serve.daemon.requests_per_batch":
            (s["batched_requests"] - b["batched_requests"]) / max(batches, 1),
        "serve.daemon.max_batch": s["max_batch"],
        "serve.daemon.overloads": s["overloads"] - b["overloads"],
        "serve.pool.memo_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
    }
