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

A server loads every module an endpoint runs before it listens, on its
main thread: a module compiled on a request thread leaves its parser
and code blocks in that thread's malloc arena, resident for the life
of the process.  ``/decide`` alone loads its search on first use.  The
shard router loads what it routes, not the handlers, engines, planner
or durable store its workers run.
"""

import importlib
import os
import pkgutil
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

#: What ``bagcq serve`` and ``bagcq serve --shards N`` import.
SERVER_IMPORTS = (
    "repro.cli, repro.service.server, repro.shard.router, repro.shard.persist"
)

#: Every module a server, shard worker or router runs for any endpoint.
SERVED_MODULES = f"{SERVER_IMPORTS}, repro.decision.search"

#: What the workers behind a shard router run and the router does not.
UNROUTED = (
    "repro.homomorphism.engine",
    "repro.homomorphism.compiled",
    "repro.homomorphism.treewidth_dp",
    "repro.planner",
    "repro.shard.persist",
    "repro.service.handlers",
)

#: What ``/decide`` loads on its first request.
DECIDE_MODULES = [
    "repro.decision",
    "repro.decision.search",
    "repro.homomorphism.batch",
    "repro.relational.operations",
]

PATH_COUNT = {"query_text": "E(x,y) & E(y,z)", "facts": "E(a,b) E(b,c)"}

#: One request per served path but ``/decide``: ``(method, path, body)``.
SERVED_REQUESTS = (
    ("GET", "/healthz", None),
    ("GET", "/metrics", None),
    ("GET", "/traces", None),
    *(
        ("POST", "/evaluate", {**PATH_COUNT, "engine": engine})
        for engine in ("auto", "treewidth", "compiled")
    ),
    ("POST", "/contain", {"phi_s_text": "E(x,y) & E(y,x)", "phi_b_text": "E(x,y)"}),
    (
        "POST",
        "/contain",
        {
            "kind": "ucq",
            "disjuncts_s": [{"query_text": "E(x,y) & E(y,x)"}],
            "disjuncts_b": [{"query_text": "E(x,y)"}, {"query_text": "E(x,x)"}],
        },
    ),
    ("POST", "/explain", {"query_text": "E(x,y) & E(y,z)"}),
    ("POST", "/db", {"name": "g", "facts": "E(a,b) E(b,c)"}),
    ("POST", "/update", {"db": "g", "insert": "E(c,a)"}),
    ("POST", "/evaluate", {"query_text": "E(x,y) & E(y,z)", "db": "g"}),
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


def _run_fresh(program: str) -> str:
    """What ``program`` prints in a fresh interpreter."""
    environment = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, environment.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env=environment,
        timeout=60,
        check=True,
    )
    return result.stdout.strip()


def _loaded_after_server_imports(
    names: tuple[str, ...],
    imports: str = SERVER_IMPORTS,
    then: str = "",
) -> str:
    """Which of ``names`` a fresh interpreter holds after ``imports``
    and the statement ``then``."""
    return _run_fresh(
        "import sys\n"
        f"import {imports}\n"
        f"{then}\n"
        f"print(sorted(name for name in {names!r} if name in sys.modules))\n"
    )


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


def test_serving_loads_no_module_after_start():
    program = f"""
import http.client, json, sys
import repro.cli, repro.service.server
from repro.service.server import EvaluationServer, ServerConfig

def loaded():
    return {{name for name in sys.modules if name.startswith("repro")}}

def call(method, path, body=None):
    connection.request(method, path, body and json.dumps(body))
    response = connection.getresponse()
    response.read()
    assert response.status == 200, (path, body, response.status)

imported = loaded()
with EvaluationServer(ServerConfig(workers=1)) as server:
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    for request in {SERVED_REQUESTS!r}:
        call(*request)
    served = loaded()
    call("POST", "/decide", {{"phi_s_text": "E(x,y)", "phi_b_text": "E(x,x)"}})
    connection.close()
print(sorted(served - imported), sorted(loaded() - served))
"""
    assert _run_fresh(program) == f"[] {DECIDE_MODULES}"


def test_router_loads_only_what_it_routes():
    loaded = _loaded_after_server_imports(
        UNROUTED, imports="repro.cli, repro.shard.router"
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


def test_shard_root_resolves_every_export():
    import repro.shard

    _assert_resolves_every_export(repro.shard)


def test_every_module_resolves_every_name_in_its_all():
    unresolved = []
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(module_info.name)
        unresolved.extend(
            f"{module_info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        )
    assert unresolved == []
