"""Simulation code is a pure function of (source, config, seed), checked at rest.

Every golden and benchmark digest assumes a run replays from its seed. This
module reads ``src/repro`` without importing it and fails on ambient
randomness, wall-clock reads or hash-seed-dependent order where a run
executes: in full under ``sim``, ``core``, ``transport``, ``media``,
``scenario``, ``telemetry``, ``server`` and ``baselines``; under ``service``
(the real-socket server) all but the wall-clock and asyncio checks. A file's
zone is its first path component under the root checked (``src/repro`` or a
fixture root), never a directory above it.

The seven hazard classes: stdlib ``random`` (the one bug this check found: a
``REDQueue`` fallback gave every queue ``random.Random(0)``), ``numpy.random``
module state, wall-clock reads (``time.time``/``perf_counter``/``monotonic``
and their ``_ns`` forms, ``datetime.now``/``utcnow``/``today``), OS entropy
(``os.urandom``, ``secrets``, ``uuid1``/``uuid4``), iterating or materialising
a set, ``asyncio`` and the ``loop.time()`` idiom.

``# repro-lint: disable=RL001`` suppresses a finding on its line and
``# repro-lint: disable-file=RL001`` in its file. Only comment tokens count,
and each directive under ``src/`` must suppress something. A file that does
not parse fails ``ast.parse``.

Retired rules (none ever reported a finding in ``src/``; the code is in git
history), their size in lines and what pins each property now:

- RL003 units (178), RL006 dimensions (64 + most of ``lint/flow/``): the
  closed forms in ``tests/core/test_formulas.py`` and the goldens.
- RL005 seed flow (519): ``tests/scenario/test_scenario.py``, the relabel and
  seed-split cases in ``tests/differential/test_metamorphic.py``.
- RL007 hook guards (337): a ``None`` hook raises on the signals-off path.
- RL008 explicit priority (144): the ``(time, priority, seq)`` heap key.
- RL009 tolerances (208): ``tests/sim/test_crossing_contract.py``.
- RL010 process safety (206): the serial-vs-pooled bit-identity tests.
- RL011 sim time (200): ``Simulator.schedule*`` raise on a past instant.
- RL012 numpy (287): bit-equal arrays and dtypes in ``test_fluid_batch.py``.
- RL002, RL004, RL013-RL016: ``tests/service/test_no_blocking.py``,
  ``census.py`` and ``test_silent_peer.py``.
"""

import ast
import io
import pathlib
import re
import shutil
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "determinism"

ZONES = "sim core transport media scenario telemetry server baselines service".split()
CLOCKS = "time perf_counter monotonic clock_gettime".split()
WALL_CLOCK = {name + ns for name in CLOCKS for ns in ("", "_ns")}
NOW = {"datetime.datetime.now", "datetime.datetime.utcnow", "datetime.date.today"}
ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}
LOOP_CLOCKS = {"loop.time", "_loop.time", "event_loop.time", "_event_loop.time"}
ORDER_SINKS = {"list", "tuple", "enumerate", "iter"}
DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>[A-Za-z]+\d+(?:\s*,\s*[A-Za-z]+\d+)*)"
)
SEEDED = "take a seeded repro.sim.rng stream"
CLOCK = "wall clock; simulation time is sim.now and timers are sim.schedule"
SET_ORDER = "set order follows PYTHONHASHSEED; wrap the set in sorted(...)"


def dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def import_aliases(tree):
    """Local name -> the dotted path it imports (relative imports skipped).

    ``import numpy as np`` maps ``np -> numpy``, ``import numpy.random`` maps
    ``numpy -> numpy`` and ``from datetime import datetime as dt`` maps
    ``dt -> datetime.datetime``.
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(node, aliases):
    """The imported dotted path a Name/Attribute chain names, else None."""
    head, dot, rest = (dotted_name(node) or "").partition(".")
    return aliases[head] + dot + rest if head in aliases else None


def hazard(dotted):
    """``(message, allowed in service)`` for a hazardous dotted path, else None."""
    root, _, rest = dotted.partition(".")
    randomness = root in ("random", "secrets") or dotted in ENTROPY
    if randomness or f"{dotted}.".startswith("numpy.random."):
        return f"{dotted} is ambient randomness; {SEEDED}", False
    if root == "asyncio" or (root == "time" and rest in WALL_CLOCK) or dotted in NOW:
        return f"{dotted} runs on the {CLOCK}", True
    return None


def is_set(node):
    """A set display, set comprehension or ``set()``/``frozenset()`` call."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return isinstance(node, (ast.Set, ast.SetComp))


def findings(tree, zone):
    """``(line, col, message)`` of every hazard in a module of ``zone``."""
    clocked = zone != "service"
    aliases = import_aliases(tree)
    # One use of ``a.b.c`` is one finding: the inner links are not looked at.
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    found = []

    def report(node, what):
        if what is not None and (clocked or not what[1]):
            found.append((node.lineno, node.col_offset, what[0]))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                report(node, hazard(alias.name))
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                report(node, hazard(f"{node.module}.{alias.name}"))
        elif isinstance(node, ast.Attribute) and id(node) not in inner:
            dotted = resolve_dotted(node, aliases)
            report(node, dotted and hazard(dotted))
        elif isinstance(node, (ast.For, ast.comprehension)) and is_set(node.iter):
            report(node.iter, (SET_ORDER, False))
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ORDER_SINKS and node.args and is_set(node.args[0]):
                report(node, (f"{name}() of a set: {SET_ORDER}", False))
            elif name in LOOP_CLOCKS and not (node.args or node.keywords):
                report(node, (f"{name}() reads the {CLOCK}", True))
    return found


def directives(source):
    """``(line, code, whole file)`` of every suppression comment."""
    marks = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = token.type == tokenize.COMMENT and DIRECTIVE.search(token.string)
        if match:
            codes = {code.strip().upper() for code in match["codes"].split(",")}
            whole_file = match["scope"] == "disable-file"
            marks += [(token.start[0], code, whole_file) for code in sorted(codes)]
    return marks


def check_file(path, root):
    """Unsuppressed findings and ``(directive, used)`` pairs of one file."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    zone = path.relative_to(root).parts[0]
    raw = findings(tree, zone) if zone in ZONES else []
    marks = directives(source)

    def covers(mark, line):
        return mark[1] == "RL001" and (mark[2] or mark[0] == line)

    kept = [f for f in raw if not any(covers(mark, f[0]) for mark in marks)]
    return kept, [(mark, any(covers(mark, f[0]) for f in raw)) for mark in marks]


def check_tree(root):
    """:func:`check_file` of every ``.py`` under ``root``, by relative path."""
    paths = sorted(root.rglob("*.py"))
    return {path.relative_to(root).as_posix(): check_file(path, root) for path in paths}


def locations(found):
    return [f"{line}:{col}" for line, col, _ in sorted(found)]


#: Each fixture and the ``line:col`` of every finding it must produce.
EXPECTED = """
service/bad_service_random.py 11:4 13:11 19:11 23:11
service/clean_service.py
sim/bad_asyncio.py 9:4 11:11 15:4 21:11 25:11
sim/bad_random.py 12:8 14:14 19:4 21:11 25:4 34:19 36:11
sim/good_seeded.py
sim/suppressed.py 18:11
"""
PINNED = {name: found for name, *found in map(str.split, EXPECTED.split("\n")[1:-1])}


@pytest.fixture(scope="module")
def src_tree():
    return check_tree(SRC)


def test_src_tree_is_clean(src_tree):
    assert len(src_tree) > 50  # the whole package, not a subset
    assert {name: kept for name, (kept, _) in src_tree.items() if kept} == {}


def test_every_suppression_under_src_is_used(src_tree):
    audit = {name: marks for name, (_, marks) in src_tree.items() if marks}
    assert audit == {"sim/rng.py": [((14, "RL001", True), True)]}


@pytest.mark.parametrize("name", PINNED)
def test_fixture_findings(name):
    found = check_tree(FIXTURES)
    assert sorted(found) == sorted(PINNED)  # every fixture pinned, none extra
    assert locations(found[name][0]) == PINNED[name]


def test_the_zone_is_taken_under_the_root_not_above_it(tmp_path):
    # A checkout under a directory named ``service`` keeps sim/'s clock checks.
    root = tmp_path / "service" / "x"
    (root / "sim").mkdir(parents=True)
    shutil.copy(FIXTURES / "sim" / "bad_asyncio.py", root / "sim")
    kept, _ = check_file(root / "sim" / "bad_asyncio.py", root)
    assert locations(kept) == PINNED["sim/bad_asyncio.py"]


def test_packages_outside_the_zones_are_not_checked(tmp_path):
    for package in ("tools", "experiments", "analysis"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "m.py").write_text("import random, time\n")
    assert [kept for kept, _ in check_tree(tmp_path).values()] == [[], [], []]


@pytest.mark.parametrize(
    "zone, source, count",
    [
        ("core", "from datetime import datetime; datetime.now()", 1),
        ("core", "import datetime; datetime.date.today()", 1),
        ("service", "from datetime import datetime; datetime.now()", 0),
        ("service", "import os; os.urandom(8)", 1),
        ("service", "import secrets", 1),
        ("server", "from uuid import uuid1", 1),
        ("baselines", "import time; time.monotonic_ns()", 1),
        ("telemetry", "for x in frozenset(y): pass", 1),
        ("media", "def f(event_loop): return event_loop.time()", 1),
        ("service", "def f(loop): return loop.time()", 0),
    ],
)
def test_each_hazard_class(zone, source, count):
    assert len(findings(ast.parse(source), zone)) == count


def test_one_use_of_a_dotted_chain_is_one_finding():
    source = "import asyncio\nasyncio.events.get_event_loop()\n"
    source += "import numpy as np\nnp.random.mtrand.rand()\n"
    lines = [line for line, _, _ in findings(ast.parse(source), "sim")]
    assert (lines.count(2), lines.count(4)) == (1, 1)


@pytest.mark.parametrize(
    "source, marks",
    [
        ("x = 1  # repro-lint: disable=RL001", [(1, "RL001", False)]),
        ("x  # repro-lint: disable=RL3,RL1", [(1, "RL1", False), (1, "RL3", False)]),
        ("# repro-lint: disable-file=RL009", [(1, "RL009", True)]),
        ("x = 1  #  repro-lint:  disable = rl001", [(1, "RL001", False)]),
        ("# disable=RL001 is mentioned in prose", []),
        ('"""Write ``# repro-lint: disable=RL001``."""', []),
        ("x = 1  # repro-lint: disable=RL099", [(1, "RL099", False)]),
    ],
)
def test_directive_syntax(source, marks):
    assert directives(source) == marks


def test_a_stale_directive_is_reported(tmp_path):
    (tmp_path / "sim").mkdir()
    path = tmp_path / "sim" / "mixed.py"
    path.write_text(
        "import random  # repro-lint: disable=RL001\n"
        "VALUE = 1  # repro-lint: disable=RL001\n"
    )
    kept, audit = check_file(path, tmp_path)
    assert (kept, [used for _, used in audit]) == ([], [True, False])


def test_a_file_that_does_not_parse_fails(tmp_path):
    (tmp_path / "broken.py").write_text("def half(:\n")
    with pytest.raises(SyntaxError):
        check_tree(tmp_path)
