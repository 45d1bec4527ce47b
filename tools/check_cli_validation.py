#!/usr/bin/env python3
"""Invalid numeric flag values must exit 2 naming the flag, and an output
file that cannot be opened must exit 1 naming the path.

    check_cli_validation.py <gflink binary>

0 workers, GPUs or streams used to abort the process through an internal
check, and a negative size or iteration count silently became the default.
A malformed --slo-ms used to switch the SLO burn-rate detector off quietly,
a sub-nanosecond --telemetry-period aborted, and an unopenable
--telemetry-out or --flight-dump exited 0.
"""

import os
import subprocess
import sys
import tempfile

CASES = [["--workers", "0"], ["--workers", "abc"], ["--workers", "4x"],
         ["--gpus", "0", "--mode", "gflink"], ["--streams", "0", "--mode", "gflink"],
         ["--iterations", "-3"], ["--size", "-5"], ["--size", "nan"],
         ["--scale", "0"], ["--scale", "-1e-3"],
         ["--slo-ms", "abc"], ["--slo-ms", "-5"], ["--slo-ms", "5x"],
         ["--telemetry-period", "1e-9"], ["--telemetry-period", "1e300"]]
# Flags that name an output file; a small run, so the ones written at exit
# are reached quickly.
OUTPUT_FLAGS = ["--telemetry-out", "--telemetry-prom", "--trace-out", "--report-out",
                "--flight-dump"]
SMALL_RUN = ["pointadd", "--mode", "gflink", "--size", "1", "--workers", "2",
             "--iterations", "2"]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    errors = []
    for args in CASES:
        p = subprocess.run([sys.argv[1], "kmeans"] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=120)
        if p.returncode != 2 or args[0] not in p.stderr:
            errors.append("%s: rc %d, stderr %r" % (" ".join(args), p.returncode, p.stderr[:200]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "missing", "out")
        for flag in OUTPUT_FLAGS:
            p = subprocess.run([sys.argv[1]] + SMALL_RUN + [flag, path], stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, timeout=120)
            if p.returncode != 1 or path not in p.stderr:
                errors.append("%s %s: rc %d, stderr %r"
                              % (flag, path, p.returncode, p.stderr[:200]))
    if errors:
        sys.exit("invalid flag values not rejected:\n  " + "\n  ".join(errors))
    print("rejected all %d invalid flag values with rc 2 and all %d unopenable outputs "
          "with rc 1" % (len(CASES), len(OUTPUT_FLAGS)))


if __name__ == "__main__":
    main()
