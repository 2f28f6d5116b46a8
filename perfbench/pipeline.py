"""The three converter calls a batch goes through, their checks, and the
per-layer probes a traced run adds.

A batch is formatted with ``format_buffer``, its parse plane read with
``parse_buffer`` and its values printed with ``format_printf("%.6e")``,
all on one long-lived ``Engine``.  On the traced rounds the layer probes
then time the public functions those calls are built from on the same
inputs, on a second ``Engine`` that sees only those rounds (so its memo
holds the traced half of the stream, not all of it).
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import oracles
from yardstick import REF_S, yardstick

from repro.core import shortest_digits
from repro.engine import Engine, format_buffer, parse_buffer, split_plane
from repro.engine.buffer import classify_tokens
from repro.engine.bulk import ingest_bits
from repro.floats import BINARY64
from repro.floats.model import Flonum
from repro.format.printf import format_printf
from repro.reader.exact import read_decimal

#: Every this many values/tokens of a batch go through the exact-tier
#: probes (``core.shortest_digits``, ``reader.read_decimal``).
EXACT_SAMPLE_EVERY = 8


@dataclass
class Batch:
    """One batch: packed bit patterns to format, and either literals to
    splice into the formatted plane (every ``long_every`` rows) or a
    separate plane to read."""
    packed: bytes
    long: List[str] = field(default_factory=list)
    long_every: int = 0
    read_plane: Optional[bytes] = None

    @property
    def values(self) -> List[float]:
        return array("d", self.packed).tolist()

    def parse_plane(self, plane: bytes) -> bytes:
        if self.read_plane is not None:
            return self.read_plane
        if not self.long:
            return plane
        rows = plane.split(b"\n")[:-1]
        out = []
        for i, lit in enumerate(self.long):
            out.extend(rows[i * self.long_every:(i + 1) * self.long_every])
            out.append(lit.encode("ascii"))
        out.extend(rows[len(self.long) * self.long_every:])
        return b"\n".join(out) + b"\n"


class Timing(NamedTuple):
    """What a run keeps of one batch's calls: seconds and sizes only, so
    the heap does not grow with the number of rounds."""
    format_s: float
    parse_s: float
    fixed_s: float
    format_bytes: int
    parse_bytes: int
    rows: int
    yard_s: float

    @property
    def host(self) -> float:
        """The round's yardstick over the reference (>1: slow host)."""
        return self.yard_s / REF_S


@dataclass
class Calls:
    plane: bytes
    parse_in: bytes
    bits: list
    fixed: List[str]
    format_s: float
    parse_s: float
    fixed_s: float
    yard_s: float

    def timing(self) -> Timing:
        return Timing(self.format_s, self.parse_s, self.fixed_s,
                      len(self.plane), len(self.parse_in), len(self.fixed),
                      self.yard_s)


def run_calls(tracer, eng: Engine, batch: Batch, values, request) -> Calls:
    """The three timed converter calls on one batch, after one timing of
    the host yardstick."""
    clock = time.perf_counter
    yard = yardstick()
    with tracer.span("repro.engine.format_buffer", request):
        t0 = clock()
        plane = format_buffer(batch.packed, engine=eng)
        t1 = clock()
    parse_in = batch.parse_plane(plane)
    with tracer.span("repro.engine.parse_buffer", request):
        t2 = clock()
        bits = parse_buffer(parse_in, engine=eng)
        t3 = clock()
    with tracer.span("repro.format.format_printf", request):
        t4 = clock()
        fixed = [format_printf("%.6e", x, engine=eng) for x in values]
        t5 = clock()
    return Calls(plane, parse_in, bits, fixed, t1 - t0, t3 - t2, t5 - t4,
                 yard)


def check_calls(values, calls: Calls) -> tuple:
    """``(attempted, failed, first reason)`` over every output row."""
    failed, why = oracles.check_plane_shortest(values, calls.plane)
    texts = calls.parse_in.decode("ascii").split("\n")[:-1]
    f, w = oracles.check_plane_read(texts, calls.bits)
    failed, why = failed + f, why or w
    for x, row in zip(values, calls.fixed):
        w = oracles.check_fixed(x, row)
        if w is not None:
            failed, why = failed + 1, why or w
    return 2 * len(values) + len(texts), failed, why


class LayerProbe:
    """Times the program's public layer functions on each batch and
    keeps, per span name, how many items it converted."""

    def __init__(self):
        self.engine = Engine()
        self.items = defaultdict(int)

    def run(self, tracer, batch: Batch, values, calls: Calls,
            request) -> None:
        items = self.items
        eng = self.engine
        span = tracer.span
        uniques = array("d", array("Q", sorted(set(
            array("Q", batch.packed)))).tobytes()).tolist()
        tokens = calls.parse_in.split(b"\n")[:-1]
        utokens = list(dict.fromkeys(tokens))
        utexts = [t.decode("ascii") for t in utokens]
        texts = [t.decode("ascii") for t in tokens]
        nonzero = [abs(x) for x in values if x]
        exact_values = [Flonum.from_float(x)
                        for x in nonzero[::EXACT_SAMPLE_EVERY]]
        exact_texts = texts[::EXACT_SAMPLE_EVERY]
        with span("probe", request):
            with span("repro.engine.bulk.ingest_bits", request):
                ingest_bits(batch.packed, BINARY64)
            with span("repro.engine.Engine.format_many", request):
                eng.format_many(uniques)
            with span("repro.engine.buffer.split_plane", request):
                split_plane(calls.parse_in)
            with span("repro.engine.buffer.classify_tokens", request):
                classify_tokens(utokens)
            with span("repro.engine.ReadEngine.read_many", request):
                eng.reader.read_many(utexts)
            with span("repro.engine.Engine.counted_digits", request):
                for x in nonzero:
                    eng.counted_digits(x, ndigits=7)
            with span("repro.core.shortest_digits", request):
                for v in exact_values:
                    shortest_digits(v)
            with span("repro.reader.read_decimal", request):
                for t in exact_texts:
                    read_decimal(t)
            with span("host.repr", request):
                for x in values:
                    repr(x)
            with span("host.float", request):
                for t in texts:
                    float(t)
            with span("host.printf", request):
                for x in values:
                    "%.6e" % x
        n = len(values)
        for name, count in (
                ("repro.engine.bulk.ingest_bits", n),
                ("repro.engine.Engine.format_many", len(uniques)),
                ("repro.engine.buffer.split_plane", len(tokens)),
                ("repro.engine.buffer.classify_tokens", len(utokens)),
                ("repro.engine.ReadEngine.read_many", len(utexts)),
                ("repro.engine.Engine.counted_digits", len(nonzero)),
                ("repro.core.shortest_digits", len(exact_values)),
                ("repro.reader.read_decimal", len(exact_texts)),
                ("host.repr", n), ("host.float", len(tokens)),
                ("host.printf", n),
                ("rows", n), ("uniques", len(uniques))):
            items[name] += count


def us_per(self_s: dict, items: dict, name: str) -> float:
    return self_s.get(name, 0.0) / max(items[name], 1) * 1e6


def layer_metrics(tracer, probe: LayerProbe) -> dict:
    """Per-layer timings from the probe spans, and the share of each
    in-process call's time that the layer probes do not account for."""
    st = tracer.self_times()
    it = probe.items
    total = {n: sum(tracer.durations(n)) for n in (
        "repro.engine.format_buffer", "repro.engine.parse_buffer",
        "repro.format.format_printf")}

    def remainder(call, *layers):
        t = total[call]
        return (t - sum(st.get(n, 0.0) for n in layers)) / t if t else 0.0

    return {
        "engine.format_many.us_per_value":
            us_per(st, it, "repro.engine.Engine.format_many"),
        "engine.reader.read_many.us_per_value":
            us_per(st, it, "repro.engine.ReadEngine.read_many"),
        "engine.buffer.split_plane.us_per_row":
            us_per(st, it, "repro.engine.buffer.split_plane"),
        "engine.buffer.classify_tokens.us_per_token":
            us_per(st, it, "repro.engine.buffer.classify_tokens"),
        "engine.bulk.ingest_bits.us_per_value":
            us_per(st, it, "repro.engine.bulk.ingest_bits"),
        "engine.counted.us_per_value":
            us_per(st, it, "repro.engine.Engine.counted_digits"),
        "engine.buffer.dup_factor": it["rows"] / max(it["uniques"], 1),
        "core.shortest_digits.us_per_value":
            us_per(st, it, "repro.core.shortest_digits"),
        "reader.read_decimal.us_per_literal":
            us_per(st, it, "repro.reader.read_decimal"),
        "host.repr.us_per_value": us_per(st, it, "host.repr"),
        "host.float.us_per_value": us_per(st, it, "host.float"),
        "host.printf.us_per_value": us_per(st, it, "host.printf"),
        "trace.format_buffer.unattributed_share": remainder(
            "repro.engine.format_buffer", "repro.engine.bulk.ingest_bits",
            "repro.engine.Engine.format_many"),
        "trace.parse_buffer.unattributed_share": remainder(
            "repro.engine.parse_buffer", "repro.engine.buffer.split_plane",
            "repro.engine.ReadEngine.read_many"),
        "trace.format_printf.unattributed_share": remainder(
            "repro.format.format_printf",
            "repro.engine.Engine.counted_digits"),
    }


def _share(hit: int, miss: int) -> float:
    return hit / (hit + miss) if hit + miss else 0.0


def counter_metrics(stats: dict) -> dict:
    """Engine layer ratios, from counters only (``cache_entries`` is a
    gauge and is not used)."""
    w_fast = (stats["tier0_hits"] + stats["tier1_hits"]
              + stats["schubfach_hits"])
    r_fast = (stats["read_tier0_hits"] + stats["read_tier1_hits"]
              + stats["read_lemire_hits"])
    writes = w_fast + stats["tier2_calls"]
    reads = r_fast + stats["read_tier2_calls"]
    return {
        "engine.write.fast_share": _share(w_fast, stats["tier2_calls"]),
        "engine.write.tier2_calls":
            stats["tier2_calls"] * 1e3 / max(writes, 1),
        "engine.memo.hit_ratio": _share(stats["cache_hits"],
                                        stats["cache_misses"]),
        "engine.reader.fast_share": _share(r_fast, stats["read_tier2_calls"]),
        "engine.reader.tier2_calls":
            stats["read_tier2_calls"] * 1e3 / max(reads, 1),
        "engine.counted.fast_share": _share(stats["fixed_tier1_hits"],
                                            stats["fixed_tier2_calls"]),
    }


def counter_delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after
            if isinstance(after[k], int)}
