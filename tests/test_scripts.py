"""The index sweep script: its table, its pinned bytes and its exits."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "index_sweep.py"
HEADER = "type\tp\tindex\tcommon\tj1\tm\timage_dim\tideal"
# the default table: A1 A2 A3 B2 D4 E6, 56 rows
DEFAULT_TABLE_SHA256 = (
    "6da9e637054a375bd1604018ed30ea21559ed40fd5422eee0822edfd03e818fc")


def start(*args, stdout=subprocess.PIPE) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, str(SCRIPT), *args],
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env=env)


def sweep(*args, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    with start(*args, stdout=stdout) as proc:
        out, err = proc.communicate(timeout=120)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


@pytest.fixture(scope="module")
def default_run():
    return sweep()


@pytest.fixture(scope="module")
def cells(default_run):
    # (type, p, index, m) -> (common, j1, image_dim, ideal)
    rows = [line.split("\t") for line in default_run.stdout.splitlines()[1:]]
    return {(t, int(p), int(i), int(m)): (c, j1, int(dim), ideal)
            for t, p, i, c, j1, m, dim, ideal in rows}


def test_the_default_table_is_pinned(default_run):
    assert default_run.returncode == 0, default_run.stderr
    assert default_run.stdout.splitlines()[0] == HEADER
    assert len(default_run.stdout.splitlines()) == 1 + 56
    assert hashlib.sha256(default_run.stdout.encode()).hexdigest() \
        == DEFAULT_TABLE_SHA256


def test_the_e6_cells_match_the_e6_sweep(cells):
    # as e6_index_sweep.py printed them: common index, j1, and the ideal
    # comparison in degrees 1..3 ('-' where the premise is not met)
    expected = {1: ("0", "- - -"), 3: ("1", "5=5 - -"),
                9: ("2", "5=5 19=19 49=49"), 27: ("2", "5=5 19=19 49=49")}
    for index, (j1, ideals) in expected.items():
        got = [cells["E6", 3, index, m] for m in (1, 2, 3)]
        assert {(c, j) for c, j, _, _ in got} == {(str(index), j1)}
        assert " ".join(ideal for *_, ideal in got) == ideals


@pytest.mark.parametrize("name, p, index, split, twisted", [
    # as split_vs_twisted.py printed them, in degrees 1..min(p, 2)
    ("A1", 2, 2, (1, 0), (0, 0)),
    ("A2", 3, 3, (2, 2), (1, 0)),
    ("A3", 2, 4, (3, 5), (2, 2)),
    ("B2", 2, 2, (2, 2), (1, 1)),
    ("D4", 2, 2, (4, 9), (2, 4)),
])
def test_the_image_dimensions_match_the_split_and_twisted_sweep(
        cells, name, p, index, split, twisted):
    for m, (dim_split, dim_twisted) in enumerate(zip(split, twisted), 1):
        assert cells[name, p, 1, m][2] == dim_split
        assert cells[name, p, index, m][2] == dim_twisted


def test_a2_gains_its_third_degree(cells):
    assert [cells["A2", 3, i, 3][2] for i in (1, 3)] == [1, 0]


@pytest.mark.parametrize("types, reason", [
    (["Q9"], "unknown type letter 'Q'"),
    # a bad entry after a good one still prints nothing
    (["A2", "Q9"], "unknown type letter 'Q'"),
    (["E7"], "exceeds the size guard"),
])
def test_a_bad_input_is_named_and_exits_2(types, reason):
    proc = sweep("--types", *types)
    assert proc.returncode == 2 and proc.stdout == ""
    assert reason in proc.stderr and "Traceback" not in proc.stderr


def test_a_closed_pipe_ends_the_sweep_quietly():
    # the reader leaves after the header line, as `| head -1` does; the
    # table may be in the pipe by then, so this run may end with 0 or 1
    with start("--types", "A2") as proc:
        assert proc.stdout.readline() == HEADER + "\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) in (0, 1)
        assert proc.stderr.read() == ""
    # a reader that has left before the first write: exit 1, no traceback
    read, write = os.pipe()
    os.close(read)
    try:
        closed = sweep("--types", "A2", stdout=write)
    finally:
        os.close(write)
    assert closed.returncode == 1 and closed.stderr == ""
