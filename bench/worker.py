"""A warm optiform process for the in-process pass.

Started once per run as `python3 bench/worker.py ROOT [--trace]`, it imports
`optiform.cli` from ROOT/src and then serves one JSON request per line on
stdin, answering one JSON line on stdout:

    {"argv": [...], "out": PATH, "label": L}  run cli.main(argv) with stdout
                                              captured in memory; the text
                                              goes to PATH after timing
    {"layers": true}                          per-layer metrics of the pass
                                              traced since the last such
                                              request; starts a new pass
    {"spans": PATH}                           write the last pass's span
                                              tree to PATH
    {"rss": true}                             peak resident set size, KiB

With --trace, wrappers from spans.py are installed around every layer
before the first request.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def serve(root, traced, channel):
    sys.path.insert(0, os.path.join(root, "src"))
    from optiform import cli

    tracer = last_pass = None
    if traced:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    def reply(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    reply({"ready": True})
    for line in sys.stdin:
        req = json.loads(line)
        if "argv" in req:
            if tracer is not None:
                tracer.begin_operation(req["label"])
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(req["argv"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            seconds = time.perf_counter() - t0
            with open(req["out"], "w") as fh:
                fh.write(out.getvalue())
            reply({"code": code, "seconds": seconds, "stderr": err.getvalue()[-500:]})
        elif "layers" in req:
            layers = spans.layer_metrics(tracer)
            last_pass = tracer.spans()
            tracer.reset()
            reply({"layers": layers})
        elif "spans" in req:
            with open(req["spans"], "w") as fh:
                json.dump(last_pass, fh)
            reply({"written": True})
        elif "rss" in req:
            reply({"rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})


if __name__ == "__main__":
    serve(sys.argv[1], "--trace" in sys.argv[2:], sys.stdout)
