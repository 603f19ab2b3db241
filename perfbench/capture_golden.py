"""Record the sha256 of every ``analyze --format json`` stdout of the
``catalog`` and ``ladder`` workloads, for each CLI seed, into golden.json.

The benchmark counts any later mismatch as a failed item, so the digests
freeze byte-identical output.  Run it only when an output change is
intended, and say so in the change that commits the new file:

    python3 perfbench/capture_golden.py

Each output is checked against the workload's expectations first; the
script refuses to record a digest for an output that fails them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    workdir = ROOT / ".perfbench_out" / "capture"
    golden: dict = {"cli_seeds": workloads.CLI_SEEDS}
    for name in ("catalog", "ladder"):
        golden[name] = {}
        for s in range(workloads.CLI_SEEDS):
            digests = {}
            for item in workloads.build_items(name, s, workdir, None):
                result = item.run()
                problems = [f for f in item.check(result)
                            if f != "no golden digest recorded"]
                if problems:
                    print(f"{name} seed {s} {item.label}: {problems}",
                          file=sys.stderr)
                    return 1
                digests[item.label] = workloads.digest(result[1])
            golden[name][str(s)] = digests
            print(f"{name} seed {s}: {len(digests)} digests", flush=True)
    workloads.GOLDEN_PATH.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
