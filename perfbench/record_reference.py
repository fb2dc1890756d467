"""Record perfbench/reference.json from the program at the current commit.

Run from the repository root:

    python3 perfbench/record_reference.py

Audit totals and digests are those of `lcmlat.audit.audit_batch` over each
whole exhaustive stream. The CLI workloads' digests are those of seed 0,
the default seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(HERE))

from workloads import BooleanMatching, RandomIdeals, reference_streams  # noqa: E402

DEFAULT_SEED = 0


def main() -> int:
    reference = {"audit-stream": reference_streams()}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as workdir:
        for cls in (BooleanMatching, RandomIdeals):
            workload = cls({})
            workload.setup(DEFAULT_SEED, Path(workdir))
            reference[cls.name] = {str(DEFAULT_SEED): workload.output_digests()}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
