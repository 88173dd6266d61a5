"""Freeze the reference results from the code under ``src/``.

    python3 bench/freeze.py

Run it only on code whose outputs are the seed's: every later benchmark run
is checked against what it writes to ``bench/reference/``.
"""

from __future__ import annotations

import json
import sys

import reference
import run
import workloads


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    with run.Spawner() as spawner:
        return freeze(spawner)


def freeze(spawner: run.Spawner) -> int:
    def cli(argv: tuple[str, ...]) -> bytes:
        code, out, _, _ = spawner.cli(argv, timeout=900)
        if code != 0:
            sys.exit(f"abelianaut {' '.join(argv)} exited with {code}")
        return out

    atlas = cli(workloads.ATLAS_ARGV)
    m = workloads.SEARCH_MAX_ORDER
    search_atlas = cli(("atlas", "--max-order", str(m), "--format", "csv"))
    verify = {}
    for argv in (*workloads.VERIFY_ARGVS, workloads.SETUP_ARGVS["verify"]):
        checked, skipped, mismatches = reference.parse_verify(cli(argv))
        if mismatches:
            sys.exit(f"abelianaut {' '.join(argv)} reports {mismatches} mismatches")
        verify[" ".join(argv)] = {"checked": checked, "skipped": skipped}
    manifest = {
        "frozen_from": {"git_revision": run.git_revision(), **run.source_facts()},
        "atlas": {"argv": list(workloads.ATLAS_ARGV), "sha256": reference.sha256(atlas),
                  "rows": atlas.count(b"\n") - 1, "bytes": len(atlas)},
        "search_atlas": {"file": reference.SEARCH_ATLAS_FILE, "max_order": m,
                         "sha256": reference.sha256(search_atlas),
                         "rows": search_atlas.count(b"\n") - 1},
        "verify": verify,
    }
    reference.DIRECTORY.mkdir(exist_ok=True)
    (reference.DIRECTORY / reference.SEARCH_ATLAS_FILE).write_bytes(search_atlas)
    (reference.DIRECTORY / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(json.dumps(manifest, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
