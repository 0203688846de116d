"""Regenerate ``reference.json``: simulate every point any seed can draw.

Run from the repository root (takes a few minutes on one core)::

    python3 perfbench/make_reference.py

Points run with invariants off (checks observe a run without changing
its numbers) and with the simulator's self-profiling counters on, which
is also byte-identical and yields each point's fabric bytes.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.errors import OutOfMemoryError  # noqa: E402
from repro.perf.spans import PERF  # noqa: E402
from repro.runner import SweepRunner  # noqa: E402

from perfbench import inputs, reference  # noqa: E402


def main() -> int:
    points = {}
    runner = SweepRunner(jobs=1)
    PERF.reset()
    PERF.enable()
    start = time.perf_counter()
    items = inputs.universe()
    for index, item in enumerate(items):
        before = PERF.counters.get("fabric.bytes", 0)
        try:
            result = runner.run_point(item.point)
        except OutOfMemoryError:
            points[item.key] = {"oom": True}
            continue
        entry = reference.summarize(result)
        entry["fabric_bytes"] = PERF.counters.get("fabric.bytes", 0) - before
        points[item.key] = entry
        if index % 100 == 0:
            print(f"{index}/{len(items)} {time.perf_counter() - start:.0f}s",
                  file=sys.stderr, flush=True)
    PERF.disable()
    doc = {"rel_tol": reference.REL_TOL, "points": dict(sorted(points.items()))}
    reference.PATH.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(points)} reference points to {reference.PATH}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
