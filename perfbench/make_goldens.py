"""Write graft_goldens.json: the SHA-256 of every graft-growth job's output.

The goldens are computed by the rtcalc under ``src/`` and must only be
rewritten when the rendered output is meant to change.

    python3 perfbench/make_goldens.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402


def main():
    rt = workloads.load_rtcalc(HERE.parent / "src")
    w = workloads.GraftGrowth(rt, 0)
    goldens = {w.key(t, lam): workloads.sha(w.compute(t, lam)) for t, lam in gen.graft_space()}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {workloads.GOLDENS}")


if __name__ == "__main__":
    main()
