"""Reference results frozen from the seed code, and the checks that use them.

``reference/manifest.json`` holds the digest of the ``atlas`` workload's CSV
and the ``verify`` summaries; ``reference/search-atlas.csv`` is the ratio
atlas to the ``search`` bound, from which the expected verdict of every
seeded ``search`` target is derived.  ``freeze.py`` wrote both.  The checks
compare against these files only, so the code under test never checks
itself.

Each check returns None when the output passes and a one-line reason when
it fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DIRECTORY = Path(__file__).resolve().parent / "reference"
SEARCH_ATLAS_FILE = "search-atlas.csv"
ATLAS_HEADER = ("ratio_num", "ratio_den", "order", "group")

_VERIFY_RE = re.compile(r"checked=(\d+) skipped=(\d+) mismatches=(\d+)\n")


@dataclass
class Reference:
    atlas_argv: tuple[str, ...]
    atlas_sha256: str
    search_max_order: int
    # ratio -> (order, group) of its first witness, in discovery order
    search_atlas: dict[Fraction, tuple[int, str]]
    # " ".join(argv) -> (checked, skipped)
    verify: dict[str, tuple[int, int]]

    def atlas_text(self, max_order: int) -> bytes:
        """``atlas --max-order max_order --format csv`` as the seed printed it."""
        if max_order > self.search_max_order:
            raise ValueError(f"reference atlas stops at {self.search_max_order}")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(ATLAS_HEADER)
        for r, (order, group) in self.search_atlas.items():
            if order <= max_order:
                writer.writerow((r.numerator, r.denominator, order, group))
        return out.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_atlas_csv(data: bytes) -> dict[Fraction, tuple[int, str]]:
    rows = csv.reader(io.StringIO(data.decode()))
    if tuple(next(rows)) != ATLAS_HEADER:
        raise ValueError("unexpected atlas header")
    return {Fraction(int(n), int(d)): (int(o), g) for n, d, o, g in rows}


def load(directory: Path = DIRECTORY) -> Reference:
    manifest = json.loads((directory / "manifest.json").read_text())
    data = (directory / SEARCH_ATLAS_FILE).read_bytes()
    if sha256(data) != manifest["search_atlas"]["sha256"]:
        raise ValueError(f"{SEARCH_ATLAS_FILE} does not match its digest in manifest.json")
    return Reference(
        atlas_argv=tuple(manifest["atlas"]["argv"]),
        atlas_sha256=manifest["atlas"]["sha256"],
        search_max_order=manifest["search_atlas"]["max_order"],
        search_atlas=parse_atlas_csv(data),
        verify={k: (v["checked"], v["skipped"]) for k, v in manifest["verify"].items()},
    )


def parse_verify(out: bytes) -> tuple[int, int, int] | None:
    """(checked, skipped, mismatches) from the first line of a text-format verify."""
    m = _VERIFY_RE.match(out.decode())
    return None if m is None else (int(m[1]), int(m[2]), int(m[3]))


def check_text(code: int, out: bytes, expected: bytes) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if out != expected:
        return f"output {out[:80]!r} differs from the reference {expected[:80]!r}"
    return None


def check_atlas(code: int, out: bytes, ref: Reference) -> str | None:
    if code != 0:
        return f"exit code {code}"
    digest = sha256(out)
    if digest != ref.atlas_sha256:
        return f"atlas CSV sha256 {digest[:16]}... differs from the reference"
    return None


def check_search(
    code: int, out: bytes, target: Fraction, max_order: int, ref: Reference
) -> str | None:
    """A target in the reference atlas within ``max_order`` needs exactly its
    first witness.  Any other target needs not-found over the whole bound, or
    unrealizable (a screen's proof, which the reference cannot refute)."""
    if code != 0:
        return f"exit code {code}"
    if max_order > ref.search_max_order:
        raise ValueError(f"reference atlas stops at {ref.search_max_order}")
    lines = out.decode().splitlines()
    if len(lines) != 1:
        return f"expected one JSON line, got {len(lines)}"
    try:
        got = json.loads(lines[0])
    except json.JSONDecodeError:
        return f"not JSON: {lines[0][:80]!r}"
    hit = ref.search_atlas.get(target)
    if hit is not None and hit[0] <= max_order:
        expected = {"verdict": "witness", "group": hit[1], "order": hit[0],
                    "ratio_num": target.numerator, "ratio_den": target.denominator}
        if got != expected:
            return f"target {target}: got {got}, expected {expected}"
        return None
    if got == {"verdict": "not-found-within-bounds", "max_order_searched": max_order}:
        return None
    if got.get("verdict") == "unrealizable" and got.get("reason"):
        return None
    return f"target {target} has no witness up to {max_order}, got {got}"


def check_verify(code: int, out: bytes, argv: tuple[str, ...], ref: Reference) -> str | None:
    """Pass on exit 0, no mismatch, the seed's shape count, and at least the
    seed's checked count (an oracle that covers more shapes still passes)."""
    if code != 0:
        return f"exit code {code}"
    checked_ref, skipped_ref = ref.verify[" ".join(argv)]
    summary = parse_verify(out)
    if summary is None:
        return f"no verify summary in {out[:80]!r}"
    checked, skipped, mismatches = summary
    if mismatches:
        return f"mismatches={mismatches}"
    if checked + skipped != checked_ref + skipped_ref:
        return f"checked+skipped={checked + skipped}, reference {checked_ref + skipped_ref}"
    if checked < checked_ref:
        return f"checked={checked}, reference {checked_ref}"
    return None
