"""The service's start-up footprint: the runtime needs only the stdlib.

Optional packages (networkx, numpy, scipy) are test references or dev
extras.  A fresh interpreter importing everything ``bagcq serve`` and
``bagcq serve --shards N`` load must not pull any of them in: each costs
every server and worker process its import time and resident memory.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

OPTIONAL = ("networkx", "numpy", "scipy")


def test_server_imports_load_no_optional_packages():
    environment = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, environment.get("PYTHONPATH")])
    )
    probe = (
        "import sys\n"
        "import repro.cli, repro.service, repro.shard\n"
        f"print(sorted(name for name in {OPTIONAL!r} if name in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=environment,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout
