#!/usr/bin/env python3
"""Runs a command line and checks its exit code and output.

usage: cli_check.py --exit N [--lines REGEX COUNT]... -- COMMAND [ARG]...

Passes when COMMAND exits with N and, for every --lines pair, exactly
COUNT lines of its combined stdout and stderr match REGEX.
"""

import re
import subprocess
import sys


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1:]
    want_exit = None
    lines = []
    i = 0
    while i < len(opts):
        if opts[i] == "--exit":
            want_exit = int(opts[i + 1])
            i += 2
        elif opts[i] == "--lines":
            lines.append((re.compile(opts[i + 1]), int(opts[i + 2])))
            i += 3
        else:
            sys.exit(__doc__)
    run = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True, timeout=600)
    print(run.stdout, end="")
    ok = True
    if want_exit is not None and run.returncode != want_exit:
        print(f"FAIL: exit code {run.returncode}, expected {want_exit}")
        ok = False
    for pattern, count in lines:
        got = sum(1 for line in run.stdout.splitlines() if pattern.search(line))
        if got != count:
            print(f"FAIL: {got} lines match /{pattern.pattern}/, "
                  f"expected {count}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
