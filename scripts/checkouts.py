"""Run a script's worker against one checkout of this repository.

The worker is the script itself, started again in a subprocess whose
PYTHONPATH puts the checkout's src/ and perfbench/ first, so that it
imports pigat and the benchmark workloads (bench) from that checkout.
same_bytes.py and step_memory.py both run their per-checkout work this way.
"""

from __future__ import annotations

import os
import subprocess
import sys


def start_worker(script: str, mode: str, checkout: str) -> subprocess.Popen:
    """Start `script mode CHECKOUT` on the checkout; its stdout is a pipe of text."""
    env = dict(os.environ)
    paths = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env["PYTHONPATH"]] if env.get("PYTHONPATH") else paths)
    return subprocess.Popen(
        [sys.executable, os.path.abspath(script), mode, os.path.abspath(checkout)],
        cwd=checkout,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def require_checkout_pigat(checkout: str) -> None:
    """Exit the worker unless pigat was imported from the checkout."""
    import pigat

    if not os.path.realpath(pigat.__file__).startswith(os.path.realpath(checkout) + os.sep):
        sys.exit(f"imported pigat from {pigat.__file__}, not from {checkout}")
