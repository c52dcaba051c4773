"""Benchmark worker: the one process that runs rsgame operations.

Started by ``run.py`` with ``src`` on ``sys.path``.  It imports
``rsgame.cli``, reports ready (which ends the set-up time), then reads
one JSON request per line from standard input and answers each on
standard output:

* ``{"argv": [[...], ...]}`` runs each argument list through
  ``rsgame.cli.main`` in order and answers with the exit codes, the text
  each command printed and the wall time of the whole operation;
* ``{"end": true}`` answers with the peak RSS and exits.

With ``--trace FILE`` every public rsgame function is wrapped (see
``trace.py``), each answer carries the operation's layer metrics, and the
spans are written to ``FILE`` at the end.  Inputs and oracle references
never enter this process.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import rsgame.cli

PROTOCOL = sys.stdout


def reply(payload) -> None:
    PROTOCOL.write(json.dumps(payload) + "\n")
    PROTOCOL.flush()


def flag_value(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def replay_jumps(argv) -> int:
    """Jumps of every growth path of a ``simulate`` command, recounted with
    ``sample_path`` on the same ``(seed, path)`` streams."""
    from rsgame.model import ShopParams, shop_model, uniform_strategy
    from rsgame.simulate import sample_path

    model = shop_model(ShopParams())
    v1, v2 = uniform_strategy(model, 1), uniform_strategy(model, 2)
    seed = int(flag_value(argv, "--seed"))
    horizon = float(flag_value(argv, "--horizon"))
    return sum(sample_path(model, v1, v2, model.anchor, horizon, (seed, p)).n_jumps
               for p in range(int(flag_value(argv, "--paths"))))


def run_op(commands, tracer):
    first = tracer.begin_op() if tracer else 0
    codes, texts = [], []
    start = time.perf_counter()
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(rsgame.cli.main(argv))
        texts.append(buf.getvalue())
    elapsed = time.perf_counter() - start
    answer = {"codes": codes, "stdout": texts, "op_s": elapsed}
    if tracer:
        from layertrace import layer_metrics

        with tracer.pause():
            verify = [a for a in commands if a[0] == "verify"]
            simulate = [a for a in commands if a[0] == "simulate"]
            check_range = int(flag_value(verify[0], "--range")) if verify else None
            jumps = replay_jumps(simulate[0]) if simulate else None
            answer["layers"] = layer_metrics(tracer.spans[first:], tracer,
                                             check_range, jumps)
    return answer


def main() -> int:
    trace_path = flag_value(sys.argv, "--trace")
    tracer = None
    if trace_path:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    reply({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("end"):
            if tracer:
                tracer.write(trace_path)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"peak_rss_mb": rss_kib / 1024.0})
            return 0
        try:
            reply(run_op(request["argv"], tracer))
        except Exception:  # an operation that raises is a failed operation
            reply({"error": traceback.format_exc()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
