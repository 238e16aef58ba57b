#!/usr/bin/env python3
"""Build the end-to-end broker benchmark from source, then run it.

    python3 bench/e2e/run.py --workload strict-steady --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every argument is passed to
bench/e2e/main.exe (see bench/e2e/README.md).  The build writes only
inside the checkout: dune's _build, with the dune cache disabled, and
the compilers' temporary files under .bench_build/tmp.  The exit code is
the benchmark's own: non-zero when the build fails or any correctness
check does.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit(f"run.py: {ROOT} holds no dune-project; run from a full checkout")
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./bench/e2e/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    set_timer_slack()
    exe = os.path.join(ROOT, "_build", "default", "bench", "e2e", "main.exe")
    sys.exit(subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode)


def set_timer_slack():
    """The simulated device drains and the open-loop due times are sleeps.
    Linux lets a sleep overshoot by the thread's timer slack (50 us by
    default), which would add a host-dependent constant to every drain;
    1 ns keeps the drains at their modelled length.  The benchmark
    process inherits the setting."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


PR_SET_TIMERSLACK = 29


if __name__ == "__main__":
    main()
