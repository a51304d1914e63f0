"""One cold ``loopinv`` command in this fresh interpreter.

    python3 bench/child.py SRC [--import-only] [--spans FILE] -- CLI-ARGS...

Imports ``loopinv.cli`` from SRC first, so the parent can time set-up as
"interpreter started" to "CLI imported" on the shared monotonic clock.
Then runs ``loopinv.cli.main(CLI-ARGS)`` with its stdout captured and
prints one JSON line: the import instant, the command's wall and CPU
time, peak RSS, exit code, backend and captured stdout.  With
``--spans`` the layer entry points are traced and the spans are written
to FILE when the command returns; the exact counts ride in the line.
"""

import sys
import time


def main(argv: list[str], loopinv, imported_at: float) -> None:
    import contextlib
    import io
    import json
    import resource

    flags, cli_args = argv[: argv.index("--")], argv[argv.index("--") + 1 :]
    result = {"imported_at": imported_at, "backend": loopinv.BACKEND}
    if "--import-only" in flags:
        print(json.dumps(result))
        return
    command = loopinv.cli.main
    tracer = None
    if "--spans" in flags:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        command = tracer.wrap("cli", command)
    out = io.StringIO()
    wall0, cpu0 = time.monotonic(), time.process_time()
    with contextlib.redirect_stdout(out):
        try:
            code = command(cli_args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    wall, cpu = time.monotonic() - wall0, time.process_time() - cpu0
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(exit=code, wall_s=wall, cpu_s=cpu, peak_rss_mb=rss_kb / 1024,
                  stdout=out.getvalue())
    if tracer is not None:
        tracer.write(flags[flags.index("--spans") + 1])
        counts = dict(tracer.counts)
        counts["tensor.closure_cache_entries"] = len(loopinv.tensor._RCL_CACHE)
        result["counts"] = counts
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import loopinv.cli  # the timed set-up: nothing else is imported before it

    main(sys.argv[2:], loopinv, time.monotonic())
