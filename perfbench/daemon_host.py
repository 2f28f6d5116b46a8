"""Child process: one serving daemon with its defaults.

Usage: ``python3 daemon_host.py <src-dir>``.  Prints ``{"port": N}``
once listening, then serves.  Each ``stats`` line on stdin is answered
with the daemon's ``stats()`` and ``pool_stats()`` as one JSON line;
any other line, or end of file, stops the daemon, which prints the same
and this process's peak RSS as one JSON line and exits.
"""

import asyncio
import json
import resource
import sys

sys.path.insert(0, sys.argv[1])

from repro.serve.daemon import ReproDaemon  # noqa: E402


async def main() -> None:
    daemon = ReproDaemon()
    await daemon.start()
    print(json.dumps({"port": daemon.port}), flush=True)
    loop = asyncio.get_running_loop()
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            report = {"stats": daemon.stats(),
                      "pool_stats": daemon.pool_stats()}
            if line.strip() != "stats":
                break
            print(json.dumps(report), flush=True)
    finally:
        await daemon.close()
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    asyncio.run(main())
