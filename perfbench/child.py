"""Run one kdvbbm CLI command in this process and record when its work began.

Usage: python3 child.py RESULT_JSON TRACE(0|1) COMMAND CONFIG [kdvbbm options...]

The command goes through ``kdvbbm.cli.main`` exactly as the ``kdvbbm`` console
script runs it.  The time at which the command's runner is entered marks the
end of set-up (interpreter, imports, config load and validation).  With
TRACE=1 the layers are wrapped first and the spans are written out with the
result (the span columns to RESULT_JSON.spans.npz), after the command returns.
"""

import json
import sys
import time

RUNNERS = ("run_simulate", "run_picard", "run_estimates")


def main(argv) -> int:
    result_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import kdvbbm.cli as cli

    marks = {}
    for name in RUNNERS:
        runner = getattr(cli, name)

        def marked(*args, _runner=runner, **kwargs):
            marks.setdefault("work_start", time.monotonic())
            return _runner(*args, **kwargs)

        setattr(cli, name, marked)

    code = cli.main(cli_args)
    result = {"exit": code, "work_start": marks.get("work_start")}
    if tracer is not None:
        result["trace"] = tracer.save(result_path + ".spans.npz")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
