"""Set-up probe: time a fresh process from its first statement through the
package import, config parse and first op.

    python3 probe.py ROOT CALLS_JSON

CALLS_JSON is a JSON list of `ddnpca` argument lists, run in order through
`ddnpca.cli.main`.  Prints the elapsed seconds as JSON on the last line and
exits nonzero if any call does.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    root, calls = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, f"{root}/src")
    from ddnpca.cli import main as cli_main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rcs = [cli_main(argv) for argv in calls]
    elapsed = time.perf_counter() - T0
    if any(rcs):
        print(sink.getvalue(), file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
