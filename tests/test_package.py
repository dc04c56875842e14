"""The package surface: lazily resolved public names, immutable records,
and the modules a command loads at start-up."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gammaflag
from gammaflag import (
    BrauerModel,
    KacPresentation,
    SchubertClass,
    cli,
    common_index,
    root_system,
)

ROOT = Path(__file__).resolve().parents[1]


def test_every_definition_is_used():
    # every function, method and class defined under src/gammaflag (dunders
    # and namedtuple's _make, which Python's _replace calls, aside) is
    # named by code under src/, scripts/ or perfbench/: as a Name,
    # an Attribute or an imported name, or outside src/ as a word of a
    # string constant
    defined, named = {}, set()
    for top, path, node in _nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if top == "src" and not re.fullmatch(r"__\w+__|_make",
                                                 node.name):
                defined.setdefault(node.name, f"{path}:{node.lineno}")
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
        else:
            named.update(_words(top, node))
    unused = {name for name in defined if name not in named}
    assert sorted(f"{defined[name]} {name}" for name in unused) == []


def test_every_stored_attribute_is_read():
    # every attribute a method under src/gammaflag stores on self, by
    # assignment or by object.__setattr__(self, "name", ...), is read by
    # code under src/, scripts/ or perfbench/: as an attribute load, or
    # outside src/ as a word of a string constant
    stored, read = {}, set()
    for top, path, node in _nodes():
        name = None
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                name = node.attr
        elif isinstance(node, ast.Call) and \
                ast.unparse(node.func) == "object.__setattr__" and \
                ast.unparse(node.args[0]) == "self":
            name = node.args[1].value
        else:
            read.update(_words(top, node))
        if top == "src" and name is not None:
            stored.setdefault(name, f"{path}:{node.lineno}")
    assert stored  # the walk found the attributes
    unread = {name for name in stored if name not in read}
    assert sorted(f"{stored[name]} {name}" for name in unread) == []


def _nodes():
    """(top directory, path from the root, node) for every node of the
    syntax trees of the code under src/, scripts/ and perfbench/."""
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_bytes(), str(path))
            for node in ast.walk(tree):
                yield top, path.relative_to(ROOT), node


def _words(top, node) -> list[str]:
    """The words of a string constant outside src/ (a name wrapped by its
    string, as perfbench/child.py does).  Strings in src/ declare names,
    as the table in gammaflag/__init__.py does; they do not use them."""
    if top != "src" and isinstance(node, ast.Constant) and \
            isinstance(node.value, str):
        return re.findall(r"\w+", node.value)
    return []


@pytest.mark.parametrize("name", gammaflag.__all__)
def test_every_public_name_resolves(name):
    assert getattr(gammaflag, name) is not None


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        gammaflag.no_such_name


def _records():
    """Each frozen record with the name of one of its fields."""
    rs = root_system("A2")
    fg = rs.fundamental_group()
    model = BrauerModel.split(fg, 3)
    return {
        "PositiveRoot": (rs.positive_roots[0], "alpha_coords"),
        "FiniteAbelianGroup": (fg.quotient, "factors"),
        "BrauerModel": (model, "ind"),
        "CommonIndexReport": (common_index(model, (1,)), "value"),
        "KacPresentation": (KacPresentation((1, 4), (2, 1)), "degrees"),
        "SchubertClass": (SchubertClass(2), "terms"),
        "ScenarioConfig": (cli.ScenarioConfig("weyl"), "command"),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_refuse_assignment(name):
    record, field = _records()[name]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.no_such_field = None


# Runs one command through the CLI in a fresh interpreter without site
# packages and writes the names of the loaded modules to stderr.
_CHILD = (
    "import sys\n"
    "from gammaflag.cli import main\n"
    "code = main(sys.argv[1:] + ['--no-banner'])\n"
    "sys.stderr.write(' '.join(sys.modules))\n"
    "sys.exit(code)\n"
)


def modules_loaded_by(*argv) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, *argv],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


UNUSED_AT_START_UP = {
    "dataclasses", "inspect", "fractions", "pathlib", "typing",
}

# Loaded by every command: the package's name table, the front end, and
# brauer, whose is_prime checks every config.
FRONT_END = {"gammaflag", "gammaflag.cli", "gammaflag.brauer",
             "gammaflag.commands"}
ENGINE = {"rootdata", "intmat", "weyl", "schubert", "kgamma"}

# Each command with the other gammaflag modules it loads: its own module
# in gammaflag.commands and the library code it runs, nothing more.
LOADS = {
    ("restriction-image", "--type", "E6", "--prime", "5", "--index", "25",
     "--degree", "2"): {"commands.restriction_image", *ENGINE},
    ("steinberg", "--type", "A2"): {"commands.steinberg", *ENGINE},
    ("verify-theorem", "--type", "A2", "--prime", "3", "--index", "3"):
        {"commands.verify_theorem", "jinv", *ENGINE},
    ("jconstrain", "--type", "E6", "--prime", "3", "--index", "9"):
        {"commands.jconstrain", "jinv", "rootdata", "intmat", "schubert"},
    ("rootinfo", "--type", "E6"): {"commands.rootinfo", "rootdata", "intmat"},
    ("weyl", "--type", "A2"): {"commands.weyl", "rootdata", "intmat", "weyl"},
    ("chow", "--type", "A2"):
        {"commands.chow", "rootdata", "intmat", "weyl", "schubert"},
    ("oracle", "--verify", "binomial"):
        {"commands.oracle", "formal_bundles"},
}


@pytest.mark.parametrize("argv", list(LOADS))
def test_commands_load_only_what_they_run(argv):
    loaded = modules_loaded_by(*argv)
    assert loaded & UNUSED_AT_START_UP == set()
    ours = {m for m in loaded if m.split(".")[0] == "gammaflag"}
    assert ours == FRONT_END | {f"gammaflag.{m}" for m in LOADS[argv]}


def test_the_readme_library_example_prints_true():
    # the python block of README.md's "## Library" section, run as it is
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "True\n"


def test_the_readme_transcripts_match_the_cli(capsys):
    # every "$ gammaflag ..." block of README.md, replayed through
    # cli.main: the block's other lines are its stdout, byte for byte
    readme = (ROOT / "README.md").read_text()
    transcripts = re.findall(r"^```sh\n\$ gammaflag ([^\n]*)\n(.*?)^```$",
                             readme, re.M | re.S)
    assert transcripts
    for line, want in transcripts:
        assert cli.main(line.split()) == 0, line
        assert capsys.readouterr().out == want, line
