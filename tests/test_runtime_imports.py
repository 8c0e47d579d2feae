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
no ``urllib`` client, no process pool and no ``uuid``.  No server,
shard worker or router loads ``dataclasses`` and what it imports, on
any endpoint: the records it builds are plain ``__slots__`` classes.
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

#: ``dataclasses`` and the modules it imports.
DATACLASS_MACHINERY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "copy")

#: Every module a server, shard worker or router runs for any endpoint.
SERVED_MODULES = (
    "repro.cli, repro.service.server, repro.planner, repro.containment_set, "
    "repro.homomorphism.delta, repro.decision.search, repro.shard"
)

#: Decision procedures that ``/decide`` does not run.
DECISION_SIBLINGS = (
    "repro.decision.bounded",
    "repro.decision.certificates",
    "repro.decision.equivalence",
    "repro.decision.hde",
    "repro.decision.projection_free",
    "repro.homomorphism.surjective",
)


def _loaded_after_server_imports(
    names: tuple[str, ...],
    imports: str = "repro.cli, repro.service, repro.shard",
    then: str = "",
) -> str:
    """Which of ``names`` a fresh interpreter holds after ``imports``
    and the statement ``then``."""
    environment = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, environment.get("PYTHONPATH")])
    )
    probe = (
        "import sys\n"
        f"import {imports}\n"
        f"{then}\n"
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


def test_servers_load_no_dataclass_machinery():
    loaded = _loaded_after_server_imports(
        DATACLASS_MACHINERY, imports=SERVED_MODULES
    )
    assert loaded == "[]"


def test_decide_loads_only_the_search():
    loaded = _loaded_after_server_imports(
        DECISION_SIBLINGS, imports="repro.decision.search"
    )
    assert loaded == "[]"


def test_building_the_cli_parser_loads_no_engine():
    loaded = _loaded_after_server_imports(
        ("repro.homomorphism.engine",),
        imports="repro.cli",
        then="repro.cli.build_parser()",
    )
    assert loaded == "[]"


def _assert_resolves_every_export(package) -> None:
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(
        package.__all__
    )
    assert all(getattr(package, name) is namespace[name] for name in package.__all__)
    assert set(package.__all__) <= set(dir(package))


def test_package_root_resolves_every_export():
    _assert_resolves_every_export(repro)


def test_decision_root_resolves_every_export():
    import repro.decision

    _assert_resolves_every_export(repro.decision)
