#!/usr/bin/env python3
"""Record the reference ray sets and annotations the benchmark checks against.

    python3 perfbench/record_refs.py     # from the repository root

Writes perfbench/refs.json: the extreme rays of the symmetric F-cone for
n = 11..17 and the ray annotations for n = 11 and 12, as the library
computes them.  Smaller n are checked against the golden tables instead.
Re-record only from a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from fcone import fcone_rays, ray_annotations

    refs = {
        "rays": {str(n): [list(r) for r in fcone_rays(n).rays] for n in range(11, 18)},
        "annotations": {
            str(n): [[list(ray), labels] for ray, labels in ray_annotations(n)] for n in (11, 12)
        },
    }
    (HERE / "refs.json").write_text(json.dumps(refs) + "\n")


if __name__ == "__main__":
    main()
