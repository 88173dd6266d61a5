"""Rewrite named keys of ``cli_digest.json`` from the current code.

    python tests/golden/rewrite_digest.py "search 9 --max-order 500 --format text" ...

Each argument is one key of the digest, a command of
``test_golden.DIGEST_ARGV`` joined by spaces.  The script recomputes
``test_golden.cli_digests`` and rewrites exactly the keys named, so a
change that moves some outputs on purpose names each of them and leaves
every other key as it was.  A key the digest does not hold is refused
(exit 1) before anything is written.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent


class _Capture:
    """What ``cli_digests`` reads of pytest's capsys: output since the last read."""

    def __init__(self) -> None:
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self) -> tuple[str, str]:
        captured = self.out.getvalue(), self.err.getvalue()
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return captured


def main(keys: list[str]) -> int:
    sys.path[:0] = [str(GOLDEN.parent.parent / "src"), str(GOLDEN.parent)]
    from test_golden import cli_digests

    path = GOLDEN / "cli_digest.json"
    golden = json.loads(path.read_text())
    unknown = [key for key in keys if key not in golden]
    if not keys or unknown:
        print(f"usage: rewrite_digest.py KEY...; unknown keys: {unknown}", file=sys.stderr)
        return 1
    capture = _Capture()
    with redirect_stdout(capture.out), redirect_stderr(capture.err):
        digests = cli_digests(capture)
    for key in keys:
        golden[key] = digests[key]
    path.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"rewrote {len(set(keys))} keys", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
