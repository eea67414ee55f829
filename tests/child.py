"""Run a fresh interpreter that imports the ``dessinkit`` these tests import.

The child's ``PYTHONPATH`` is the directory that holds the package, then any
further directories named, then the parent's own ``PYTHONPATH``, so a child
test measures this tree whether or not a copy is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import dessinkit

SRC = str(Path(dessinkit.__file__).resolve().parent.parent)


def run(args, *, paths=(), **kwargs):
    """``subprocess.run`` of ``python *args``, its ``PYTHONPATH`` led by
    ``SRC`` and then ``paths``."""
    joined = [SRC, *map(str, paths), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, joined))}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)
