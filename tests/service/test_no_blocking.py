"""The code that runs on the service's event loop calls no blocking API.

One thread runs every session, the introspection listener and the load
fleet, so one blocking call on the loop stalls all of them. Every
function in the loop modules runs on it; of ``cli.py`` only the
``_serve``/``_load`` coroutines do (the entry points write their files
after the loop has stopped). The check is syntactic: a call whose
dotted name, resolved through the module's imports, is in
:data:`BLOCKING_CALLS`, or a sync file-I/O method on any receiver.
"""

import ast
import pathlib

import pytest

import repro.service
from tests.test_static_determinism import (
    dotted_name, import_aliases, resolve_dotted)

SERVICE = pathlib.Path(repro.service.__file__).parent

#: Calls that block the calling thread.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen", "subprocess.getoutput",
    "os.system", "os.popen", "os.waitpid",
    "socket.create_connection", "socket.getaddrinfo",
    "socket.gethostbyname",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.request",
    "shutil.copy", "shutil.copytree", "shutil.move",
    "open", "input",
})

#: Sync file I/O on any receiver (the ``pathlib.Path`` idiom).
BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"})

LOOP_MODULES = ("server", "pacing", "protocol", "client", "impairment",
                "introspect", "sanitizer")
CLI_COROUTINES = ("_serve", "_load")


def blocking_calls(tree, scope=None):
    """``(line, name)`` of every blocking call under ``scope``."""
    imports = import_aliases(tree)
    found = []
    for call in ast.walk(scope or tree):
        if not isinstance(call, ast.Call):
            continue
        if (isinstance(call.func, ast.Attribute)
                and call.func.attr in BLOCKING_METHODS):
            found.append((call.lineno, call.func.attr))
            continue
        name = resolve_dotted(call.func, imports) or dotted_name(call.func)
        if name in BLOCKING_CALLS:
            found.append((call.lineno, name))
    return sorted(found)


def _loop_scopes():
    for module in LOOP_MODULES:
        tree = ast.parse((SERVICE / f"{module}.py").read_text())
        yield module, tree, tree
    tree = ast.parse((SERVICE / "cli.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.AsyncFunctionDef)
                and node.name in CLI_COROUTINES):
            yield f"cli.{node.name}", tree, node


SCOPES = {name: (tree, scope) for name, tree, scope in _loop_scopes()}


def test_every_loop_scope_is_found():
    assert sorted(SCOPES) == sorted(
        [*LOOP_MODULES, *(f"cli.{name}" for name in CLI_COROUTINES)])


@pytest.mark.parametrize("name", sorted(SCOPES))
def test_no_blocking_call_on_the_loop(name):
    tree, scope = SCOPES[name]
    assert blocking_calls(tree, scope) == []


def test_the_check_sees_each_shape():
    tree = ast.parse(
        "import time\n"
        "import subprocess as sp\n"
        "from os import system\n"
        "def f(path):\n"
        "    time.sleep(1)\n"
        "    sp.run(['true'])\n"
        "    system('true')\n"
        "    open(path)\n"
        "    path.write_text('x')\n")
    assert [name for _, name in blocking_calls(tree)] == [
        "time.sleep", "subprocess.run", "os.system", "open", "write_text"]
