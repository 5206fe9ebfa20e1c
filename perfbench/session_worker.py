"""One warm zetacomb session: a single process calling the public API in a loop.

    PYTHONPATH=src python3 perfbench/session_worker.py TRACE < job.json

After `import zetacomb` (and, with TRACE=1, the spans) it prints "ready".
It then reads one JSON job line, {"requests": [[function, n], ...],
"digests": bool}, times each call, checks each result against the
reference outside the timed region, and prints one JSON result line.
Before every CALIBRATE_EVERY-th call it also times `calibrate.work`, which
gauges the host's speed at that moment.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback

import zetacomb
from calibrate import work
from tracing import Tracer, install

CALIBRATE_EVERY = 2


def main() -> int:
    tracer = None
    if sys.argv[1] == "1":
        tracer = Tracer()
        install(tracer)
    print("ready", flush=True)

    import checks  # the reference is the client's data, not part of set-up

    job = json.loads(sys.stdin.readline())
    seconds, ok, digests, calibration = [], [], [], []
    for index, (function, n) in enumerate(job["requests"]):
        if index % CALIBRATE_EVERY == 0:
            start = time.perf_counter()
            work()
            calibration.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.request = index
        call = getattr(zetacomb, function)
        start = time.perf_counter()
        try:
            result = call(n)
        except Exception:  # a failed request is counted, and the session goes on
            seconds.append(time.perf_counter() - start)
            traceback.print_exc()
            ok.append(False)
            digests.append("")
            continue
        seconds.append(time.perf_counter() - start)
        content = checks.library_content(function, result)
        ok.append(checks.matches(function, n, content))
        if job["digests"]:
            text = json.dumps(content, sort_keys=True).encode()
            digests.append(hashlib.sha256(text).hexdigest())
    result = {
        "seconds": seconds,
        "ok": ok,
        "digests": digests,
        "calibration": calibration,
        "calibrate_every": CALIBRATE_EVERY,
    }
    if tracer is not None:
        result.update(spans=tracer.spans, cache_hits=tracer.cache_hits)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
