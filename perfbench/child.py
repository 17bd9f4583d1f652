"""A measured child process: samples its own speed (see pace.py), then
runs one CLI invocation, the query worker, or times the package import.

    python3 perfbench/child.py cli ARG...   # same as: derham-lft ARG...
    python3 perfbench/child.py query        # the query worker (query.serve)
    python3 perfbench/child.py imports      # prints 3 clock readings around
                                            # `import numpy`, `import derham_lft.cli`

The last line of stderr is PACE_TAG and the speed samples as JSON.
"""

import sys
import time

import pace

PACE_TAG = "perfbench-pace "


def main() -> None:
    sys.stdout = pace.GuardedStream(sys.stdout)
    sys.stderr = pace.GuardedStream(sys.stderr)
    pace.start()
    try:
        if sys.argv[1] == "imports":
            t0 = time.perf_counter()
            import numpy  # noqa: F401

            t1 = time.perf_counter()
            import derham_lft.cli  # noqa: F401

            t2 = time.perf_counter()
            print(t0, t1, t2)
        elif sys.argv[1] == "query":
            import query

            query.serve()
        else:
            sys.argv = ["derham-lft", *sys.argv[2:]]
            from derham_lft.cli import entrypoint

            entrypoint()
    finally:
        samples = pace.stop()
        import json

        sys.stderr.write(PACE_TAG + json.dumps(samples) + "\n")


if __name__ == "__main__":
    main()
