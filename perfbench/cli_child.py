"""One gtbasis CLI call with the tracer installed (the traced cli-calls round).

    cli_child.py SUMMARY_PATH CLI_ARGS...

Behaves like ``python -m gtbasis CLI_ARGS...`` (same stdout, stderr and exit
code) and also writes the call's import time, ``main`` time, per-layer
totals and spans to SUMMARY_PATH.
"""

import time

_start = time.perf_counter()
import gtbasis.cli  # noqa: E402  (the import is what is being timed)
_imported = time.perf_counter()

import sys  # noqa: E402

from tracer import Tracer, write_json  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    begin = time.perf_counter()
    try:
        code = tracer.wrap("cli.main", gtbasis.cli.main)(argv)
    except SystemExit as exc:
        code = exc.code
    main_s = time.perf_counter() - begin
    tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary()
    summary["cli"] = {"import_s": _imported - _start, "main_s": main_s,
                      "main_self_s": summary["self_s"].get("cli.main", 0.0)}
    summary["spans"] = tracer.spans()
    write_json(summary_path, summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
