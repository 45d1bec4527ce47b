#!/usr/bin/env python3
"""Invalid numeric flag values must exit 2 naming the flag.

    check_cli_validation.py <gflink binary>

0 workers, GPUs or streams used to abort the process through an internal
check, and a negative size or iteration count silently became the default.
A malformed --slo-ms used to switch the SLO burn-rate detector off quietly.
"""

import subprocess
import sys

CASES = [["--workers", "0"], ["--workers", "abc"], ["--workers", "4x"],
         ["--gpus", "0", "--mode", "gflink"], ["--streams", "0", "--mode", "gflink"],
         ["--iterations", "-3"], ["--size", "-5"], ["--size", "nan"],
         ["--scale", "0"], ["--scale", "-1e-3"],
         ["--slo-ms", "abc"], ["--slo-ms", "-5"], ["--slo-ms", "5x"]]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    errors = []
    for args in CASES:
        p = subprocess.run([sys.argv[1], "kmeans"] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=120)
        if p.returncode != 2 or args[0] not in p.stderr:
            errors.append("%s: rc %d, stderr %r" % (" ".join(args), p.returncode, p.stderr[:200]))
    if errors:
        sys.exit("invalid flag values not rejected:\n  " + "\n  ".join(errors))
    print("rejected all %d invalid flag values with rc 2" % len(CASES))


if __name__ == "__main__":
    main()
