"""Child process: a fresh interpreter's path to its first conversion.

Usage: ``python3 setup_probe.py <src-dir> <hex of packed binary64>``.
Imports the converter, builds the binary64 tables, runs the three bulk
calls once on the given values and prints one JSON line with the
outputs (checked by the parent) and the time each step took, then a
second line with the median of five timings of the host yardstick
(``yardstick.py``) in this same process, after the measured part.
"""

import time

_t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

sys.path.insert(0, sys.argv[1])

from repro.engine import Engine, format_buffer, parse_buffer  # noqa: E402
from repro.engine.tables import tables_for  # noqa: E402
from repro.floats import BINARY64  # noqa: E402
from repro.format.printf import format_printf  # noqa: E402


def main() -> None:
    t1 = time.perf_counter()
    tables_for(BINARY64, 10)
    t2 = time.perf_counter()
    packed = bytes.fromhex(sys.argv[2])
    eng = Engine()
    plane = format_buffer(packed, engine=eng)
    bits = parse_buffer(plane, engine=eng)
    fixed = [format_printf("%.6e", x, engine=eng)
             for x in array("d", packed)]
    t3 = time.perf_counter()
    print(json.dumps({"plane": plane.decode("ascii"), "bits": bits,
                      "fixed": fixed, "import_s": t1 - _t0,
                      "tables_s": t2 - t1, "first_s": t3 - t2}),
          flush=True)
    from yardstick import yardstick
    yardstick()  # the first call in a fresh process is not typical
    print(json.dumps({"yard_s": sorted(yardstick() for _ in range(5))[2]}),
          flush=True)


if __name__ == "__main__":
    main()
