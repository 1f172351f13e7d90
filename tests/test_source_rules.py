"""Source rules over ``src/repro``: a run is a pure function of (scenario, seed).

Three AST checks guard that promise in the source text itself:

* ``DET-001`` -- inside the deterministic core (:data:`CORE_PREFIXES`), no
  wall-clock or environment reads (``time.time``, ``datetime.now``,
  ``os.environ``, ``os.getenv``) and no module-level mutable state: dict,
  list and set displays and calls, ``itertools.count``, and
  ``functools.cache``/``lru_cache`` on module functions.  Such state
  outlives a run and leaks into the next one in the same process.
  ``__all__`` is exempt.
* ``DET-002`` -- inside the core, no iteration over a set literal, a
  ``set(...)``/``frozenset(...)`` call or a set-algebra result: hash order
  depends on insertion history and ``PYTHONHASHSEED``.  Iterate
  ``sorted(...)`` or an ordered sequence instead.
* ``RNG-001`` -- everywhere but ``sim/rng.py``, no unseeded or
  constant-seeded ``random.Random``, no ``random.SystemRandom``, no
  module-global ``random.*`` draw and no ``numpy.random``: every draw comes
  from a ``sim.rng.stream(...)`` derived from ``scenario.seed``.

An intended finding is kept by a pragma, with its reason, on its own line::

    rng = random.Random(0)  # repro-lint: ok RNG-001 -- listing only

A pragma that does not parse, gives no reason or names another rule is
itself a finding (``LINT-001``), and so is a file that does not parse
(``LINT-002``).  Run the rules with::

    PYTHONPATH=src python -m pytest tests/test_source_rules.py
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

import pytest

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages where a run's behaviour must be a pure function of (scenario,
#: seed).  The harness (wall-clock timing, worker-count env vars) is not.
CORE_PREFIXES = ("sim/", "protocols/", "workloads/", "mobility/", "radio/", "roadnet/")

#: The one module that may construct ``random.Random`` streams.
STREAM_FACTORY = "sim/rng.py"

#: The rules a pragma may name.
RULES = ("DET-001", "DET-002", "RNG-001")

#: Calls that read the host: the wall clock or the environment.
AMBIENT_CALLS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "os.getenv",
    }
)

#: Decorators that keep a module-level cache across runs.
CACHE_DECORATORS = frozenset({"functools.cache", "functools.lru_cache"})

#: Set-algebra methods whose results iterate in hash order.
SET_ALGEBRA_METHODS = frozenset({"difference", "intersection", "symmetric_difference", "union"})

#: ``random.<fn>`` calls that draw from (or reset) the process-global RNG.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

PRAGMA = re.compile(r"repro-lint:(.*)")
PRAGMA_BODY = re.compile(r"ok\s+([A-Z]+-\d{3}(?:\s*,\s*[A-Z]+-\d{3})*)\s+--\s+\S.*")

#: ``(rule id, line)``.
Finding = Tuple[str, int]


def _imports(tree: ast.Module) -> Dict[str, str]:
    """Local name -> the module or attribute an import statement binds it to."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:  # ``import x.y`` binds ``x``
                    top = alias.name.split(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{module}.{alias.name}"
    return bound


def _qualified(node: ast.expr, imports: Mapping[str, str]) -> Optional[str]:
    """``numpy.random.seed`` for ``np.random.seed`` after ``import numpy as
    np``; None for a chain rooted in a local variable (``self._rng.random``)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in imports:
        return None
    return ".".join([imports[node.id], *reversed(parts)])


def _mutable(value: ast.expr, imports: Mapping[str, str]) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if not isinstance(value, ast.Call):
        return False
    if isinstance(value.func, ast.Name) and value.func.id in ("dict", "list", "set"):
        return True
    return _qualified(value.func, imports) == "itertools.count"


def _det001(tree: ast.Module, imports: Mapping[str, str]) -> Iterator[int]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _qualified(node.func, imports) in AMBIENT_CALLS:
            yield node.lineno
        elif isinstance(node, (ast.Attribute, ast.Name)):
            if _qualified(node, imports) == "os.environ":  # also ``from os import environ``
                yield node.lineno
    for statement in tree.body:
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                continue
            if statement.value is not None and _mutable(statement.value, imports):
                yield statement.lineno
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in statement.decorator_list:
                called = decorator.func if isinstance(decorator, ast.Call) else decorator
                if _qualified(called, imports) in CACHE_DECORATORS:
                    yield decorator.lineno


def _unordered(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("set", "frozenset")
    return isinstance(func, ast.Attribute) and func.attr in SET_ALGEBRA_METHODS


def _det002(tree: ast.Module) -> Iterator[int]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and _unordered(node.iter):
            yield node.iter.lineno


def _rng001(tree: ast.Module, imports: Mapping[str, str]) -> Iterator[int]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _qualified(node.func, imports) or ""
        if name == "random.Random":
            positional = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
            keywords = {keyword.arg: keyword.value for keyword in node.keywords}
            seed = positional[0] if positional else keywords.get("x")  # ``Random(x=0)``
            unseeded = not node.args and not node.keywords
            if unseeded or isinstance(seed, ast.Constant):
                yield node.lineno
        elif (
            name == "random.SystemRandom"
            or name.startswith("numpy.random.")
            or (name.startswith("random.") and name[len("random."):] in GLOBAL_RANDOM_FUNCS)
        ):
            yield node.lineno


def _pragmas(source: str) -> Tuple[Set[Finding], List[int]]:
    """``(the (rule, line) pairs pragmas keep, the lines of malformed ones)``.

    Comments come from :mod:`tokenize`, so a pragma-shaped string literal
    is not a pragma.
    """
    kept: Set[Finding] = set()
    malformed = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        marker = PRAGMA.search(token.string) if token.type == tokenize.COMMENT else None
        if marker is None:
            continue
        line = token.start[0]
        body = PRAGMA_BODY.fullmatch(marker.group(1).strip())
        rules = re.split(r"\s*,\s*", body.group(1)) if body else []
        if rules and set(rules) <= set(RULES):
            kept.update((rule, line) for rule in rules)
        else:
            malformed.append(line)
    return kept, malformed


def _file_findings(relpath: str, source: str) -> Iterator[Finding]:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        yield "LINT-002", exc.lineno or 1
        return
    imports = _imports(tree)
    raw: List[Finding] = []
    if relpath.startswith(CORE_PREFIXES):
        raw += [("DET-001", line) for line in _det001(tree, imports)]
        raw += [("DET-002", line) for line in _det002(tree)]
    if relpath != STREAM_FACTORY:
        raw += [("RNG-001", line) for line in _rng001(tree, imports)]
    kept, malformed = _pragmas(source)
    yield from (("LINT-001", line) for line in malformed)
    yield from (finding for finding in raw if finding not in kept)


def findings(sources: Mapping[str, str]) -> Dict[str, List[Finding]]:
    """``{relpath: sorted (rule_id, line) pairs}`` for each file with a finding.

    Relpaths are relative to the ``repro`` package (``sim/medium.py``), so
    the core-only rules apply as they do to the real tree.
    """
    found = {}
    for relpath, source in sorted(sources.items()):
        hits = sorted(set(_file_findings(relpath, source)))
        if hits:
            found[relpath] = hits
    return found


def _flag(relpath: str, source: str) -> List[Finding]:
    return findings({relpath: source}).get(relpath, [])


def _tree() -> Dict[str, str]:
    return {
        path.relative_to(SRC_REPRO).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(SRC_REPRO.rglob("*.py"))
    }


# ------------------------------------------------------------ the real tree
def test_src_repro_is_clean():
    sources = _tree()
    assert len(sources) > 100
    found = findings(sources)
    assert not found, "\n".join(
        f"src/repro/{path}:{line}: {rule}" for path, hits in found.items() for rule, line in hits
    )


def test_every_pragma_in_the_tree_keeps_a_finding():
    """A pragma whose finding went away would silently cover the next one."""
    pragmas = 0
    for path, source in _tree().items():
        kept, _ = _pragmas(source)
        bare = "\n".join(line.split("# repro-lint:")[0] for line in source.splitlines())
        hits = _flag(path, bare)
        for rule, line in sorted(kept):
            assert (rule, line) in hits, f"src/repro/{path}:{line}: {rule} pragma keeps nothing"
            pragmas += 1
    assert pragmas >= 4


def test_fixed_seed_mobility_fallback_would_be_reflagged():
    """The random-waypoint model once fell back to ``Random(0)`` and ignored
    ``scenario.seed``: every seed produced the same motion."""
    original = (SRC_REPRO / "mobility" / "random_waypoint.py").read_text(encoding="utf-8")
    assert "self._rng = rng" in original
    reverted = original.replace(
        "self._rng = rng", "self._rng = rng if rng is not None else random.Random(0)"
    )
    assert [rule for rule, _ in _flag("mobility/random_waypoint.py", reverted)] == ["RNG-001"]
    assert _flag("mobility/random_waypoint.py", original) == []


# ------------------------------------------------------------------- fixtures
FLAGGED = [
    # RNG-001, anywhere but sim/rng.py
    ("mobility/model.py", "import random\n\nrng = random.Random(0)\n", [("RNG-001", 3)]),
    ("protocols/p.py", "import random\nrng = random.Random()\n", [("RNG-001", 2)]),
    ("harness/h.py", "import random\nrng = random.SystemRandom()\n", [("RNG-001", 2)]),
    ("workloads/w.py", "import random\n\n\nvalue = random.uniform(0.0, 1.0)\n", [("RNG-001", 4)]),
    (
        "radio/r.py",
        "import numpy as np\nnp.random.seed(3)\nx = np.random.rand(4)\n",
        [("RNG-001", 2), ("RNG-001", 3)],
    ),
    (
        "radio/registry.py",
        "import random\n# repro-lint: ok RNG-001 -- wrong line\nrng = random.Random(0)\n",
        [("RNG-001", 3)],
    ),
    # DET-001: the host
    ("sim/engine.py", "import time\n\nstart = time.time()\n", [("DET-001", 3)]),
    ("protocols/p.py", "import datetime\nstamp = datetime.datetime.now()\n", [("DET-001", 2)]),
    ("workloads/w.py", "import os\nworkers = os.environ['WORKERS']\n", [("DET-001", 2)]),
    ("radio/mac.py", "import os\nmode = os.getenv('MODE', 'fast')\n", [("DET-001", 2)]),
    (
        "sim/x.py",
        "import random, time\nrandom.random()\ntime.time()\n",
        [("DET-001", 3), ("RNG-001", 2)],
    ),
    # DET-001: module-level state that outlives a run
    (
        "sim/packet.py",
        "import itertools\nfrom functools import lru_cache\n"
        "__all__ = ['uid']\n_seen = {}\nHOPS: list = []\n_ids = set()\n"
        "_uid = itertools.count(1)\n\n@lru_cache(maxsize=None)\ndef uid(x):\n    return x\n",
        [("DET-001", 4), ("DET-001", 5), ("DET-001", 6), ("DET-001", 7), ("DET-001", 9)],
    ),
    # DET-002
    ("sim/trace.py", "for node in {3, 1, 2}:\n    emit(node)\n", [("DET-002", 1)]),
    ("workloads/burst.py", "send_all([send(n) for n in set(receivers)])\n", [("DET-002", 1)]),
    ("protocols/p.py", "for n in alive.union(joining):\n    schedule(n)\n", [("DET-002", 1)]),
    # LINT-001: pragmas that keep nothing, and LINT-002
    (
        "sim/x.py",
        "import random\nrng = random.Random(0)  # repro-lint: ok RNG-001\n",
        [("LINT-001", 2), ("RNG-001", 2)],
    ),
    ("sim/x.py", "x = f()  # repro-lint: ok RNG-001 reason without dashes\n", [("LINT-001", 1)]),
    ("sim/x.py", "x = f()  # repro-lint: ok NOPE-999 -- good reason\n", [("LINT-001", 1)]),
    ("sim/x.py", "x = f()  # repro-lint: whatever\n", [("LINT-001", 1)]),
    ("sim/broken.py", "def f(:\n", [("LINT-002", 1)]),
    # import spellings resolve to the same qualified names
    ("sim/x.py", "from random import Random\nrng = Random(0)\n", [("RNG-001", 2)]),
    ("sim/x.py", "import random as rnd\nrnd.shuffle(order)\n", [("RNG-001", 2)]),
    ("protocols/p.py", "from random import choice\nhop = choice(neighbours)\n", [("RNG-001", 2)]),
    ("workloads/w.py", "import random\nrandom.seed(7)\n", [("RNG-001", 2)]),
    ("mobility/m.py", "import random\nrng = random.Random(x=0)\n", [("RNG-001", 2)]),
    ("radio/r.py", "import numpy.random as npr\nfade = npr.normal()\n", [("RNG-001", 2)]),
    ("sim/x.py", "from time import perf_counter\nt0 = perf_counter()\n", [("DET-001", 2)]),
    ("sim/x.py", "from datetime import datetime\nstamp = datetime.utcnow()\n", [("DET-001", 2)]),
    ("sim/x.py", "from os import environ\nmode = environ.get('MODE')\n", [("DET-001", 2)]),
    (
        "protocols/p.py",
        "import os\n\ndef timeout():\n    return float(os.environ.get('T', '1'))\n",
        [("DET-001", 4)],
    ),
    # DET-001 covers every core prefix, and sim/rng.py is exempt from RNG-001 only
    ("mobility/idm.py", "import time\nT0 = time.time()\n", [("DET-001", 2)]),
    ("roadnet/graph.py", "_paths: dict = {}\n", [("DET-001", 1)]),
    ("sim/rng.py", "import time\nseed = time.time_ns()\n", [("DET-001", 2)]),
    # DET-001: more module-level state
    ("radio/r.py", "_index = {k: i for i, k in enumerate(KEYS)}\n", [("DET-001", 1)]),
    (
        "sim/x.py",
        "import functools\n\n@functools.cache\ndef f(x):\n    return x\n",
        [("DET-001", 3)],
    ),
    (
        "roadnet/r.py",
        "import functools as ft\n\n@ft.lru_cache(maxsize=8)\ndef f(x):\n    return x\n",
        [("DET-001", 3)],
    ),
    ("workloads/w.py", "from itertools import count\n_next_flow = count()\n", [("DET-001", 2)]),
    # DET-002: generators, dict comprehensions and each set-algebra method
    ("sim/x.py", "total = sum(w for w in frozenset(weights))\n", [("DET-002", 1)]),
    ("roadnet/r.py", "for n in a.difference(b):\n    visit(n)\n", [("DET-002", 1)]),
    (
        "mobility/m.py",
        "def f(a, b):\n    return {n: 0 for n in a.intersection(b)}\n",
        [("DET-002", 2)],
    ),
    ("radio/r.py", "for n in a.symmetric_difference(b):\n    drop(n)\n", [("DET-002", 1)]),
    # LINT-001/002: the meta checks cannot be kept, and report the right line
    ("sim/x.py", "x = f()  # repro-lint: ok LINT-001 -- quiet\n", [("LINT-001", 1)]),
    ("sim/x.py", "x = f()  # repro-lint: OK RNG-001 -- upper case\n", [("LINT-001", 1)]),
    (
        "sim/x.py",
        "import random\nrng = random.Random(0)  # repro-lint: ok RNG-001, NOPE-999 -- half known\n",
        [("LINT-001", 2), ("RNG-001", 2)],
    ),
    ("sim/broken.py", "x = 1\n\ndef f(:\n    pass\n", [("LINT-002", 3)]),
]

CLEAN = [
    ("mobility/generator.py", "import random\n\ndef make(seed):\n    return random.Random(seed)\n"),
    ("mobility/m.py", "def leg(rng):\n    return rng.uniform(0.0, 1.0)\n"),
    ("sim/rng.py", "import random\n\nrng = random.Random(123)\n"),
    ("radio/registry.py", "import random\nrng = random.Random(0)  # repro-lint: ok RNG-001 -- listing only\n"),
    ("sim/x.py", "import random, time\nx = random.Random(0) or time.time()  # repro-lint: ok RNG-001, DET-001 -- both\n"),
    ("sim/x.py", "x = 1  # ordinary comment\n"),
    ("sim/x.py", 's = "# repro-lint: ok RNG-001 -- not a comment"\n'),
    ("harness/runner.py", "import time\nstarted = time.perf_counter()\n_cache = {}\n"),
    ("sim/x.py", "CONSTANTS = (1, 2)\nKINDS = frozenset({'a'})\n\ndef f():\n    seen = {}\n    return seen\n"),
    ("workloads/burst.py", "for n in sorted(set(receivers)):\n    send(n)\n"),
    ("sim/x.py", "ok = node in {1, 2, 3}\n"),
    ("harness/report.py", "for n in {3, 1, 2}:\n    print(n)\n"),
    ("mobility/m.py", "import random\n\ndef make(seed):\n    return random.Random(x=seed)\n"),
    ("sim/x.py", "__all__: list = ['f']\nHOPS: dict\n"),
    ("sim/x.py", "from .clock import time\nnow = time()\n"),
    ("protocols/p.py", "def jitter(random):\n    return random.uniform(0.0, 1.0)\n"),
    ("roadnet/r.py", "for n in sorted(a.union(b)):\n    visit(n)\n"),
    ("store/store.py", "import os\n_open = {}\nroot = os.environ.get('ROOT')\n"),
    ("monitors/m.py", "import time\nt0 = time.monotonic()\n"),
]


@pytest.mark.parametrize("relpath,source,expected", FLAGGED)
def test_violation_is_flagged(relpath, source, expected):
    assert _flag(relpath, source) == expected


@pytest.mark.parametrize("relpath,source", CLEAN)
def test_sanctioned_spelling_is_clean(relpath, source):
    assert _flag(relpath, source) == []


def test_findings_are_grouped_by_file_and_sorted():
    sources = {
        "sim/b.py": "import random\nrandom.random()\nrandom.random()\n",
        "sim/a.py": "import random\nrandom.random()\n",
        "sim/ok.py": "x = 1\n",
    }
    assert findings(sources) == {
        "sim/a.py": [("RNG-001", 2)],
        "sim/b.py": [("RNG-001", 2), ("RNG-001", 3)],
    }
