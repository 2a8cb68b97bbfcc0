"""Fresh-process probe: set-up time, first run time and peak memory of one workload run.

    python3 perfbench/cold.py CONFIG_JSON OUT_DIR

Imports mfglab from the ``src`` directory next to this one, parses the config,
runs the experiment once into OUT_DIR and prints one JSON line with
``setup_s`` (import plus ``parse_config``), ``cold_run_s`` (the first
``run_experiment`` call), ``peak_rss_mb`` (peak resident set of this process,
MiB) and ``exit_code``. Exits with the run's exit code.

The peak comes from ``VmHWM``, the high-water mark of this process's own
address space. ``resource.getrusage`` is the fallback only: on Linux its
``ru_maxrss`` keeps the spawning process's high-water mark across ``exec``,
so a probe started by a large parent would report the parent's peak.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    config_path, out_dir = argv
    text = Path(config_path).read_text()
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import mfglab

    cfg = mfglab.parse_config(text)
    ready = time.perf_counter()
    result = mfglab.run_experiment(cfg, out_dir)
    done = time.perf_counter()
    print(json.dumps({
        "setup_s": ready - start,
        "cold_run_s": done - ready,
        "peak_rss_mb": _peak_rss_kib() / 1024,
        "exit_code": result.exit_code,
    }))
    return result.exit_code


def _peak_rss_kib() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
