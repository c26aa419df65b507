"""One benchmark run: a fresh process that imports gradphi, loads one config
and makes one `gradphi.harness.run_experiment` call.

    python3 bench/child.py EXPERIMENT CONFIG OUT_DIR THREADS SPAWNED_AT [SPANS]

SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process (the clock is system-wide), so `setup_s` covers interpreter start,
`import gradphi` and the config load.  With SPANS the layers are traced
(see tracer.py) and the spans are written to that path after the run.
Prints one JSON object on its last line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def main(argv) -> int:
    experiment, config, out_dir, threads, spawned_at = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None

    import numpy
    import scipy

    import gradphi
    from gradphi import harness

    expected = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "src", "gradphi")
    if os.path.dirname(os.path.abspath(gradphi.__file__)) != expected:
        print(f"gradphi imported from {gradphi.__file__}, not from {expected}",
              file=sys.stderr)
        return 3

    tracer = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cfg = harness.load_config(config)
    setup_s = time.monotonic() - float(spawned_at)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    result = harness.run_experiment(experiment, cfg, out_dir, threads=int(threads))
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "flagged": bool(result.flagged),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "gradphi": gradphi.__version__},
    }
    if tracer is not None:
        spans = tracer.spans()
        tracer.write(spans_path)
        out["trace"] = tracing.summarize(spans)
        out["spans"] = len(spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
