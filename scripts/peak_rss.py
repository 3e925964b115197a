"""Run a command and check that it succeeds within a peak-memory bound.

    python scripts/peak_rss.py LIMIT_MB -- CMD [ARG ...]

The command runs with standard input and output on /dev/null; its standard
error passes through.  The script prints the command's exit code, its peak
resident set size and its minor page faults (the child's own ``ru_maxrss``
and ``ru_minflt``, read with ``os.wait4``), and exits 0 only when the
command exited 0 and peaked below LIMIT_MB megabytes (MiB); otherwise it
exits 1.
"""
import os
import subprocess
import sys


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    limit_mb = float(argv[0])
    proc = subprocess.Popen(argv[2:], stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024
    print(f"exit {code}, peak RSS {peak_mb:.1f} MB, {usage.ru_minflt} minor faults "
          f"(limit {limit_mb:g} MB)")
    return 0 if code == 0 and peak_mb < limit_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
