"""infidelity_vs_mps of the function-grid workload as if every cell compiled.

    python3 perfbench/engine_only.py

Runs only the disentangling engine (with the two-CNOT rewrite, as
``compile`` does) on all 48 function-grid cells, so that cells that fail in
gate synthesis still count. A synthesis fix that makes cells compile should
move the benchmark's figure towards this one; a change of this figure is a
change of the engine.
"""
import math
import sys
from pathlib import Path

import checker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import impsprep as ip  # noqa: E402

N = 12
SCHEMES = ("chain", "ttn", "htn", "hen")


def main() -> None:
    logs = []
    for name in checker.CATALOG:
        target = checker.catalog_target(name, N)
        mps = checker.mps_infidelity(target)
        state = ip.from_amplitudes(target)
        for scheme in SCHEMES:
            schedule = getattr(ip, f"{scheme}_schedule")(N)
            for layers in (1, 2):
                result = ip.run_schedule(
                    state, schedule, layers, ip.default_truncation_mode(scheme), rewrite_2cx=True
                )
                logs.append(math.log(result.final_infidelity / mps))
    print(f"infidelity_vs_mps over all {len(logs)} cells: {math.exp(sum(logs) / len(logs)):.6f}")


if __name__ == "__main__":
    main()
