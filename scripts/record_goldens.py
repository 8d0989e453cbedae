#!/usr/bin/env python3
"""Rewrite tests/golden_cli.json from `tests.test_cli.record_golden`.

Run from anywhere as `PYTHONPATH=src python3 scripts/record_goldens.py`,
and only for an intended change of a command's output; the diff of the
file then shows exactly which outputs changed.  `test_golden_outputs`
checks the file.
"""

import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # the `tests` package

from tests import test_cli  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        golden = test_cli.record_golden(pathlib.Path(tmp))
    test_cli.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("wrote", test_cli.GOLDEN.relative_to(ROOT))


if __name__ == "__main__":
    main()
