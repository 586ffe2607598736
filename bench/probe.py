"""Set-up probe: run in a fresh interpreter by ``run.py``.

Times ``import yangkit`` and the building of the workload's shared inputs,
then prints one JSON line ``{"import_s": ..., "build_s": ...,
"scaled_build_s": ...}``.  ``scaled_build_s`` is the build time scaled to
the reference speed (``calibrate.py``) by calibrations that this process
runs right before and after the build, on the vCPU the build ran on.
``run.py`` scales the import time by calibrations of its own around the
whole probe.

    python3 bench/probe.py <workload>
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    name = sys.argv[1]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import yangkit
    import_s = time.perf_counter() - t0

    import calibrate
    import workloads
    spec = workloads.WORKLOADS[name]
    build_s = scaled_build_s = 0.0
    if "closure" in spec:
        before = calibrate.calibrate()
        t0 = time.perf_counter()
        workloads.build_closure(yangkit, spec)
        build_s = time.perf_counter() - t0
        scaled_build_s = calibrate.scale(build_s, before,
                                         calibrate.calibrate())
    print(json.dumps({"import_s": import_s, "build_s": build_s,
                      "scaled_build_s": scaled_build_s}))


if __name__ == "__main__":
    main()
