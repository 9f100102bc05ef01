"""Record the outputs of every case in ``test_cli.GOLDEN_CASES`` into cli_goldens.json.

Run from the repository root as ``PYTHONPATH=src python tests/record_cli_goldens.py``.
Keys other than the cases (the ladder digest) are kept as they are.
"""

import json
import sys
import tempfile
from pathlib import Path

from test_cli import GOLDEN_CASES, golden_argv, golden_forms, run_in, write_golden_inputs

path = Path(__file__).resolve().parent / "cli_goldens.json"
goldens = json.loads(path.read_text())
with tempfile.TemporaryDirectory() as tmp:
    write_golden_inputs(Path(tmp))
    goldens["cases"] = {
        case: {fmt: run_in(tmp, golden_argv(case, fmt)) for fmt in golden_forms(case)} for case in sorted(GOLDEN_CASES)
    }
goldens["argparse_python"] = "%d.%d" % sys.version_info[:2]
path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
