"""One timed set-up, run in a fresh interpreter by ``run.py``.

Reads a scenario spec's JSON on standard input, then imports
``repro``, parses the spec and builds the runtime, timing each phase.
The clock starts at this file's first statement, so interpreter
start-up is not counted.  Prints one JSON object: the phase times, the
total, and the number of tasks the built runtime generated.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    spec_text = sys.stdin.read()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import repro  # noqa: F401
    from repro.scenario import ScenarioSpec
    t1 = perf_counter()
    spec = ScenarioSpec.from_json(spec_text)
    t2 = perf_counter()
    runtime = spec.build()
    t3 = perf_counter()
    print(json.dumps({
        "setup_s": t3 - START,
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "build_s": t3 - t2,
        "tasks": len(runtime.tasks),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
