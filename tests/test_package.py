"""The package surface: lazily resolved public names, immutable records,
and the modules a command loads at start-up."""

import os
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
        "CommonIndexReport": (common_index(model, fg, (1,)), "value"),
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
    "gammaflag.jinv", "gammaflag.formal_bundles",
}


@pytest.mark.parametrize("argv", [
    ("restriction-image", "--type", "E6", "--prime", "5", "--index", "25",
     "--degree", "2"),
    ("steinberg", "--type", "A2"),
])
def test_commands_load_only_what_they_run(argv):
    assert modules_loaded_by(*argv) & UNUSED_AT_START_UP == set()


def test_verify_theorem_loads_jinv_only():
    loaded = modules_loaded_by(
        "verify-theorem", "--type", "A2", "--prime", "3", "--index", "3")
    assert "gammaflag.jinv" in loaded
    assert "gammaflag.formal_bundles" not in loaded
