"""The one way a test starts a Python child: ``child.run``.

A child runs ``sys.executable`` in text mode with the test process's
environment less PYTHONUNBUFFERED, so its stdout is block-buffered, as it is
for a user's pipe or file: what the CLI does not flush itself (an atexit
handler's output) reaches the sink only through the program entry's final
flush. A test that wants the unbuffered case asks for it.
"""
from __future__ import annotations

import os
import subprocess
import sys


def run(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=None, unbuffered=False,
        preexec_fn=None):
    """Run ``python *args`` (interpreter flags, then ``-c`` code or ``-m`` module and its
    argv) to its end; ``env`` is added to the environment. Returns the CompletedProcess."""
    environ = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        environ["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=stderr,
        text=True,
        env={**environ, **(env or {})},
        preexec_fn=preexec_fn,
    )
