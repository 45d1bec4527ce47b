#!/usr/bin/env python3
"""A run report's peak_rss_mb is the peak of the process that wrote it.

    check_peak_rss.py <gflink binary>

Runs a small CPU-mode job that writes a run report, once as it is and once
after this script has grown by 64 MB more than that run's own peak. Linux
carries getrusage's ru_maxrss across exec, so a report that read it showed
the launcher's peak, above the ballast, instead of the run's own. Sizing
the ballast from the first run keeps the check meaningful in builds whose
own peak is large (AddressSanitizer's is about 85 MB).
"""

import json
import math
import os
import subprocess
import sys
import tempfile

BALLAST_MB = 64


def report_peak(binary, tmp):
    report = os.path.join(tmp, "report.json")
    subprocess.run([binary, "pointadd", "--mode", "cpu", "--report-out", report],
                   stdout=subprocess.DEVNULL, check=True, timeout=120)
    with open(report) as f:
        return json.load(f)["peak_rss_mb"]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        own = report_peak(sys.argv[1], tmp)
        ballast_mb = BALLAST_MB + math.ceil(own)
        ballast = b"\x01" * (ballast_mb << 20)  # written, so every page is resident
        peak = report_peak(sys.argv[1], tmp)
        del ballast
    if not 0 < peak < ballast_mb:
        sys.exit(f"peak_rss_mb {peak} is not the run's own peak ({own} when launched "
                 f"small): it should stay below the launcher's {ballast_mb} MB ballast")
    print(f"ok: peak_rss_mb {peak:.1f} with a launcher holding {ballast_mb} MB "
          f"(own peak {own:.1f})")


if __name__ == "__main__":
    main()
