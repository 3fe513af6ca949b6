"""One step of one benchmark repetition, in a fresh process.

    python bench/child.py '{"workload": "recover", "seed": 1, "role": "setup",
                            "trace": false, "run_dir": "...", "work_dir": "..."}'

``role`` is ``setup`` (the untimed set-up, which only ``recover`` has)
or ``timed``.  The last line of standard output is one JSON object.  A
timed step reports ``ready``, the ``time.monotonic()`` reading once
imports and set-up are done; that clock is system-wide, so the parent
subtracts its own reading at spawn to get the set-up time.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(spec: dict) -> dict:
    import workloads
    from layers import LayerTrace

    name = spec["workload"]
    base = workloads.bench_config(spec["seed"])
    run_dir = Path(spec["run_dir"])
    if spec["role"] == "setup":
        checks = workloads.setup(name, base, run_dir)
        return {"attempted": checks.attempted, "failed": checks.failed}
    gc.collect()
    ready = time.monotonic()
    trace = LayerTrace() if spec["trace"] else None
    out = workloads.timed(name, base, run_dir, Path(spec["work_dir"]), trace)
    out["ready"] = ready
    if trace is not None:
        out["layers"] = trace.metrics()
        trace.write(Path(spec["work_dir"]), name)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
