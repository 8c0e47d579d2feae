"""The service's start-up footprint: the runtime needs only the stdlib.

Optional packages (networkx, numpy, scipy) are test references or dev
extras.  A fresh interpreter importing everything ``bagcq serve`` and
``bagcq serve --shards N`` load must not pull any of them in: each costs
every server and worker process its import time and resident memory.
The same holds for the package's own reductions, polynomials and
decision procedures, which the package root re-exports lazily.

A single server (``bagcq serve`` without ``--shards``, and so every
shard worker) also loads none of the stdlib it never uses: no OpenSSL
(``ssl``, ``_hashlib``), no ``http.client``/``email`` header parsing,
no ``urllib`` client, no process pool and no ``uuid``.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

OPTIONAL = ("networkx", "numpy", "scipy")

#: Subpackages no server request path needs at start-up.
UNSERVED = ("repro.core", "repro.polynomials", "repro.decision")

#: Stdlib modules a single server never uses.
UNUSED_BY_ONE_SERVER = (
    "ssl",
    "_hashlib",
    "http.client",
    "email",
    "urllib.request",
    "multiprocessing",
    "concurrent.futures.process",
    "uuid",
)


def _loaded_after_server_imports(
    names: tuple[str, ...],
    imports: str = "repro.cli, repro.service, repro.shard",
) -> str:
    """Which of ``names`` a fresh interpreter holds after ``imports``."""
    environment = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, environment.get("PYTHONPATH")])
    )
    probe = (
        "import sys\n"
        f"import {imports}\n"
        f"print(sorted(name for name in {names!r} if name in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=environment,
        timeout=60,
        check=True,
    )
    return result.stdout.strip()


def test_server_imports_load_no_optional_packages():
    assert _loaded_after_server_imports(OPTIONAL) == "[]"


def test_server_imports_load_no_unserved_subpackages():
    assert _loaded_after_server_imports(UNSERVED) == "[]"


def test_one_server_loads_no_unused_stdlib():
    # Exactly what `python -m repro.cli serve` imports, without the router.
    loaded = _loaded_after_server_imports(
        UNUSED_BY_ONE_SERVER, imports="repro.cli, repro.service.server"
    )
    assert loaded == "[]"


def test_package_root_resolves_every_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(
        repro.__all__
    )
    assert repro.count is namespace["count"]
    assert set(repro.__all__) <= set(dir(repro))
