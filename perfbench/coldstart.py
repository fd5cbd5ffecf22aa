"""One cold start: import flexmech.cli in this fresh process and run one op.

Usage: python3 coldstart.py <src-dir> <cli args...>

Prints one JSON line: the import time, the time to import and finish the
op, the CLI exit code, and the time of the reference task (speed.py), run
right after the op so that the caller can scale the first two to
reference speed.
"""

import contextlib
import io
import json
import sys
from time import perf_counter


def main():
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    start = perf_counter()
    import flexmech.cli
    imported = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = flexmech.cli.main(argv)
    done = perf_counter()
    import speed  # sys.path[0] is this directory
    reference_s = sorted(speed.time_reference() for _ in range(3))[1]
    print(json.dumps({"import_s": imported - start, "setup_s": done - start, "exit": code,
                      "reference_s": reference_s}))


if __name__ == "__main__":
    main()
