"""Run one ``mvlsim`` CLI call in this fresh interpreter and time it.

    python3 perfbench/worker.py RESULT.json [--spans SPANS.json] -- <mvlsim args>

Writes the CLI's exit code, the host seconds of its ``main()`` call, those
seconds normalized to a reference machine speed (see ``speed.py``) and the
process's peak resident memory to RESULT.json.  With ``--spans`` the
cross-module calls are traced as well (see ``tracing.py``), and after the
call SPANS.json gets the spans, the factor that turns their host seconds
into normalized ones and the normalized cost of one aggregated wrapper.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

import speed
from common import import_mvlsim


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    result_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    import_mvlsim()
    from mvlsim import cli
    tracer = None
    run = cli.main
    if spans_path is not None:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.span(tracing.ROOT_SPAN, cli.main)
    with speed.SpeedSampler() as sampler:
        t0 = perf_counter()
        code = run(cli_args)
        wall = perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.flush()
    with open(result_path, "w") as fh:
        json.dump({"exit": code, "wall_s": wall, "norm_s": sampler.normalize(wall),
                   "peak_rss_mb": rss_mb}, fh)
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "totals": tracer.totals,
                       "scale": sampler.normalize(wall) / wall,
                       "aggregated_cost_s": tracing.aggregated_cost()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
