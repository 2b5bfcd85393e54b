#!/usr/bin/env python3
"""Queue-footprint guard: ladder lane storage must follow the live events.

Reads `ftgcs_bench sweep ... --timing` outputs and takes the `bytes[queue]:`
footer's lane_peak_bytes (pool high-water plus head-vector capacity),
lane_peak_live and lane_peak_lanes (live events and non-empty lanes when
the pool peaked). Fails when a run keeps more than the live set accounts
for: 16 B per live event in the blocks and again in the head vector, plus
one partial 512 B block per non-empty lane. Storage retained for lanes
that have drained, as per-bucket capacity that only ratchets up, exceeds
that. The counters are deterministic, so the check has no noise.

Usage: check_queue_footprint.py TIMING.txt [TIMING.txt ...]

Exit status: 0 within the bound, 1 a run kept more, 2 usage/IO error or a
missing footer field.
"""

import re
import sys

ENTRY_BYTES = 16
BLOCK_BYTES = 512
FOOTER = re.compile(
    r"^bytes\[queue\]:.*\blane_peak_bytes=(\d+) lane_peak_lanes=(\d+) "
    r"lane_peak_live=(\d+)", re.MULTILINE)


def footprint(path):
    with open(path, encoding="utf-8") as handle:
        match = FOOTER.search(handle.read())
    if match is None:
        raise ValueError(f"{path}: no bytes[queue]: lane_peak_* footer")
    return tuple(int(g) for g in match.groups())


def main(paths):
    if not paths:
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 2
    ok = True
    for path in paths:
        try:
            kept, lanes, live = footprint(path)
        except (OSError, ValueError) as err:
            print(f"check_queue_footprint: {err}", file=sys.stderr)
            return 2
        if kept <= 0:
            print(f"check_queue_footprint: {path} kept no lane storage "
                  "(not a ladder run?)", file=sys.stderr)
            return 2
        bound = 2 * ENTRY_BYTES * live + BLOCK_BYTES * lanes
        verdict = "ok" if kept <= bound else "FAIL"
        ok &= kept <= bound
        print(f"{path}: lane_peak_bytes {kept} (live {live}, lanes {lanes}, "
              f"bound {bound}, {kept / bound:.2f}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
