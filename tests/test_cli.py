"""Command-line interface: formats, exit codes, and byte-stable reports."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammaflag import SteinbergTable, WeylGroup, cli, root_system, weyl_group
from gammaflag.cli import main
from gammaflag.commands import steinberg as steinberg_cmd
from gammaflag.commands import weyl as weyl_cmd
from gammaflag.weyl import Packer

ROOT = Path(__file__).resolve().parents[1]

A2_STEINBERG_TSV = (
    "word\trho\tclass\n"
    "-\t0 0\t0\n"
    "1\t-1 1\t2\n"
    "2\t1 -1\t1\n"
    "1,2\t-1 0\t1\n"
    "2,1\t0 -1\t2\n"
    "1,2,1\t-1 -1\t0\n"
)

A2_WEYL_COUNTS_TSV = (
    "length\tcount\n"
    "0\t1\n"
    "1\t2\n"
    "2\t2\n"
    "3\t1\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden outputs ------------------------------------------------------------


def test_steinberg_tsv_golden(capsys):
    code, out, _ = run_cli(
        capsys, "steinberg", "--type", "A2", "--format", "tsv", "--no-banner")
    assert code == 0
    assert out == A2_STEINBERG_TSV


# sha256 of stdout and the exit code of listings larger than the goldens
STEINBERG_DIGESTS = {
    ("A6", "tsv"): (
        0, "7fd0734ed3c7e09e837e3d03eadb55fcf1a840632dda87250dabe1d60c36bd33"),
    ("B6", "tsv"): (
        0, "6b941ba45995765b7a51e4c2759064d3628403d7d2e7c20de5337086a74221b0"),
    ("C6", "tsv"): (
        0, "9d081bf6ee21512d15ac797586034787f76204764dbd16a8112e332bcc0b077e"),
    ("D6", "tsv"): (
        0, "2faf178a756dc0903269315223dd048dd292088b45dfb357dc9d78af0985a752"),
    ("D5", "json"): (
        0, "27a8df5722969d5956e0bd02f0f3f446a6a4d534a4e80b40437858fd39a3909f"),
    ("D5", "tsv"): (
        0, "dd5eced02e21593f246b016b56febc821661a188583f0648f4978735725d3ec0"),
    ("D5", "pretty"): (
        0, "a080865b96c6052b761d83e75a41a70fd4fe527af9ead944c3868e1beb4f38b9"),
    ("F4", "json"): (
        0, "65351681e41cb6207605010428d8da6a6892e6b1547fa08b0ba164de3bc5f261"),
    ("F4", "tsv"): (
        0, "2e21728ac8951fded8b894259993a5eb15a8e587131d8342c422f1a3acf4009d"),
    ("F4", "pretty"): (
        0, "5460b219365b0752020a73c4c4055eb1b9029a4e0dfeeb8d14b6764f050a7dd4"),
    ("E6", "pretty"): (
        0, "008660969add779fe5cc594236c22be83442bfb1722c9417f5dc4c3e31211c63"),
}


@pytest.mark.parametrize("dynkin,fmt", sorted(STEINBERG_DIGESTS))
def test_larger_steinberg_listings_keep_their_bytes(capsys, dynkin, fmt):
    code, out, _ = run_cli(
        capsys, "steinberg", "--type", dynkin, "--format", fmt, "--no-banner")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        STEINBERG_DIGESTS[dynkin, fmt])


class HashSink(io.TextIOBase):
    """A stdout that keeps only the sha256 of what is written to it and
    the size of each write."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.sizes = []  # of each write
        self.chars = 0

    def write(self, text):
        self.digest.update(text.encode())
        self.sizes.append(len(text))
        self.chars += len(text)
        return len(text)


TracedListing = namedtuple("TracedListing", "code digest peak group")


@pytest.fixture(scope="module")
def traced_e6_listing():
    """One E6 tsv listing under tracemalloc, shared by the tests that read
    its output, its peak and the group it was listed from."""
    with pytest.MonkeyPatch.context() as mp:
        # a cache of its own, so the group the listing builds is fresh
        mp.setattr(steinberg_cmd, "weyl_group", functools.cache(WeylGroup))
        sink = HashSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["steinberg", "--type", "E6", "--format", "tsv",
                             "--no-banner"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        group = steinberg_cmd.weyl_group(root_system("E6"))
    return TracedListing(code, sink.digest.hexdigest(), peak, group)


def test_the_e6_listing_streams_in_bounded_memory(traced_e6_listing):
    code, digest, peak, group = traced_e6_listing
    catalogue = json.loads((ROOT / "perfbench" / "catalogue.json").read_text())
    frozen = catalogue["commands"]["steinberg --type E6 --format tsv"]
    assert (code, digest) == (frozen["rc"], frozen["sha256"])
    # a stored table of all 51,840 elements peaks at about 25 MiB
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert len(group._keys) == 1


def test_the_e6_listing_checks_its_weights_in_8_bytes_each(
        traced_e6_listing):
    code, _, peak, _ = traced_e6_listing
    # a set of the 51,840 packed weights peaked at about 5.8 MiB and 16
    # bytes each at about 3.3 MiB; 8 bytes each, with one int per element
    # for the walk's columns, about 2.1 MiB
    assert code == 0
    assert peak < 2.5 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_the_e6_weights_spread_over_every_bucket():
    # by the low byte, 21 of 256 buckets filled and one held 10,351
    count = steinberg_cmd._WeightCount(6)
    table = SteinbergTable(weyl_group(root_system("E6")))
    for _, _, rhos, _ in table.lengths():
        count.add(rhos)
    sizes = [len(bucket) for bucket in count._buckets]
    assert sum(sizes) == 51840 and min(sizes) > 0
    # twice the mean, 51,840 / 251
    assert max(sizes) <= 413, max(sizes)


# the ends of a packed field, and any field
EDGE_FIELDS = st.one_of(
    st.sampled_from([-2**7, -(2**7 - 1), -1, 0, 1, 2**7 - 1]),
    st.integers(-2**7, 2**7 - 1))


@given(st.integers(1, 8), st.data())
def test_the_weight_count_is_the_number_of_distinct_weights(n, data):
    packer = Packer(n)
    weights = data.draw(st.lists(
        st.lists(EDGE_FIELDS, min_size=n, max_size=n), max_size=40))
    values = [packer.pack(w) for w in weights]
    if values:
        values += data.draw(st.lists(st.sampled_from(values), max_size=20))
        values = data.draw(st.permutations(values))
    count = steinberg_cmd._WeightCount(n)
    cut = data.draw(st.integers(0, len(values)))  # added as two lengths
    count.add(values[:cut])
    count.add(values[cut:])
    assert len(count) == len(set(values))


@pytest.mark.parametrize("n", [0, 9])
def test_the_weight_count_refuses_ranks_past_eight_bytes(n):
    with pytest.raises(ValueError, match="outside 1..8"):
        steinberg_cmd._WeightCount(n)


def test_weyl_counts_by_length_enumerate_nothing(capsys, monkeypatch):
    # a cache of its own, so the group the command builds is fresh
    monkeypatch.setattr(weyl_cmd, "weyl_group", functools.cache(WeylGroup))
    code, out, _ = run_cli(capsys, "weyl", "--type", "E6", "--format", "tsv",
                           "--count-by-length", "--no-banner")
    rows = [row.split("\t") for row in out.splitlines()]
    assert code == 0 and rows[0] == ["length", "count"] and len(rows) == 38
    assert sum(int(c) for _, c in rows[1:]) == 51840
    group = weyl_cmd.weyl_group(root_system("E6"), max_length=None)
    assert len(group._keys) == 1


@pytest.mark.parametrize("collide", [False, True, "across lengths"])
def test_steinberg_reports_a_weight_collision(capsys, monkeypatch, collide):
    lengths = SteinbergTable.lengths
    across = collide == "across lengths"

    def repeating(self):
        # the second element of length 1 gets the first one's weight or,
        # across lengths, the first element of length 2 does
        for m, (parents, letters, rhos, classes) in enumerate(lengths(self)):
            if m == 1:
                first = rhos[0]
                if not across:
                    rhos = [first, *rhos[:-1]]
            elif m == 2 and across:
                rhos = [first, *rhos[1:]]
            yield parents, letters, rhos, classes

    if collide:
        monkeypatch.setattr(SteinbergTable, "lengths", repeating)
    want = 1 if collide else 0
    args = ("steinberg", "--type", "A2", "--no-banner", "--format")
    code, out, _ = run_cli(capsys, *args, "tsv")
    rows = out.splitlines()
    assert code == want and len(rows) == 7
    # rows[k + 1] is element k: elements 1, 2 have length 1 and 3, 4 length 2
    other = rows[4 if across else 3]
    assert (rows[2].split("\t")[1] == other.split("\t")[1]) == bool(collide)
    code, out, _ = run_cli(capsys, *args, "pretty")
    assert code == want
    assert out.splitlines()[0] == "type A2: 6 elements, " + (
        "WEIGHT COLLISION" if collide else "all weights distinct")
    code, out, _ = run_cli(capsys, *args, "json")
    payload = json.loads(out)
    assert code == want and len(payload["entries"]) == 6
    assert payload["distinct"] is not collide


def test_the_e6_listing_is_written_in_blocks():
    sink = HashSink()
    with contextlib.redirect_stdout(sink):
        code = main(["steinberg", "--type", "E6", "--format", "tsv",
                     "--no-banner"])
    # one write per row would be 51,841; every write but the last is a
    # whole block, and none holds more than a block and one row
    assert code == 0 and sink.chars > 2 * 10**6
    assert len(sink.sizes) <= sink.chars // cli._BLOCK + 1
    assert max(sink.sizes) < cli._BLOCK + 100


def test_json_entries_are_drawn_as_they_are_written(monkeypatch):
    elements, drawn = steinberg_cmd._steinberg_elements, []

    def counted(table):
        for item in elements(table):
            drawn.append(item)
            yield item

    class Sink(io.StringIO):
        # per write: (entries drawn by then, entries begun in the output)
        marks, written = [], 0

        def write(self, text):
            self.written += text.count('"class"')  # an entry's first key
            self.marks.append((len(drawn), self.written))
            return super().write(text)

    monkeypatch.setattr(steinberg_cmd, "_steinberg_elements", counted)
    sink = Sink()
    with contextlib.redirect_stdout(sink):
        code = main(["steinberg", "--type", "D5", "--format", "json",
                     "--no-banner"])
    assert code == 0 and len(json.loads(sink.getvalue())["entries"]) == 1920
    assert len(drawn) == 1920
    # no entry is drawn before the one ahead of it has reached the output,
    # so no write waits on more than its own block of entries
    assert all(d <= w + 1 for d, w in sink.marks)
    # and a D5 entry takes over 100 characters: the first block holds a few
    # dozen, far from the last
    first = next(d for d, w in sink.marks if w)
    assert first <= cli._BLOCK // 100 < 1920 // 10


def test_the_frozen_catalogue_replays_in_process():
    # every command the benchmark issues keeps its exit code and stdout
    catalogue = json.loads((ROOT / "perfbench" / "catalogue.json").read_text())
    got = {}
    for key in catalogue["commands"]:
        sink = HashSink()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(key.split())
        got[key] = {"rc": code, "sha256": sink.digest.hexdigest()}
    assert got == catalogue["commands"]


def test_weyl_count_tsv_golden(capsys):
    code, out, _ = run_cli(
        capsys, "weyl", "--type", "A2", "--count-by-length",
        "--format", "tsv", "--no-banner")
    assert code == 0
    assert out == A2_WEYL_COUNTS_TSV


def test_verify_theorem_pgl2_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify-theorem", "--type", "A1", "--prime", "2",
        "--index", "2", "--format", "json", "--no-banner")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["vacuous"] is False
    assert payload["common_index"]["value"] == 2
    assert payload["degrees"][0] == {
        "m": 1, "applicable": True, "dim_char": 0, "dim_twisted": 0,
        "equal": True,
    }
    assert payload["degrees"][1]["applicable"] is False
    assert payload["failures"] == []


def test_restriction_image_degree_two(capsys):
    code, out, _ = run_cli(
        capsys, "restriction-image", "--type", "A2", "--prime", "3",
        "--index", "9", "--degree", "2", "--format", "json", "--no-banner")
    assert code == 0
    payload = json.loads(out)
    assert payload["image_dim"] == 0
    assert payload["ideal_dim"] == 1
    assert payload["ideal_basis"] == [[1, 2]]
    assert payload["pivots"] == []


def test_oracle_binomial_tsv(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--verify", "binomial", "--max-mult", "3",
        "--format", "tsv", "--no-banner")
    assert code == 0
    assert out == ("case\tok\n"
                   "mult=0\ttrue\n"
                   "mult=1\ttrue\n"
                   "mult=2\ttrue\n"
                   "mult=3\ttrue\n")


def test_rootinfo_mentions_the_lattice(capsys):
    code, out, _ = run_cli(
        capsys, "rootinfo", "--type", "A2", "--format", "json", "--no-banner")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == [2, 3]
    assert payload["weyl_order"] == 6
    assert payload["fundamental_group"]["factors"] == [3]
    assert payload["lattice"]["kind"] == "adjoint"


# -- determinism and format purity ----------------------------------------------


def test_json_output_round_trips(capsys):
    _, out, _ = run_cli(
        capsys, "jconstrain", "--type", "E6", "--prime", "3",
        "--index", "9", "--format", "json", "--no-banner")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_output_is_byte_stable(capsys):
    args = ("verify-theorem", "--type", "A2", "--prime", "3", "--index", "9",
            "--format", "json", "--no-banner")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_banner_goes_to_stderr_only(capsys):
    code, out, err = run_cli(capsys, "weyl", "--type", "A2",
                             "--format", "tsv")
    assert code == 0
    assert "gammaflag" in err
    assert "gammaflag" not in out
    code, out, err = run_cli(capsys, "weyl", "--type", "A2",
                             "--format", "tsv", "--no-banner")
    assert err == ""


# -- config files ----------------------------------------------------------------


def test_config_file_drives_a_scenario(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({
        "type": "A2", "lattice": "adjoint", "prime": 3,
        "brauer": {"ind": {"0": 1, "1": 3, "2": 3}},
    }))
    code, out, _ = run_cli(
        capsys, "verify-theorem", "--config", str(cfg),
        "--format", "json", "--no-banner")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "A2"
    assert payload["verified"] is True


def test_flags_override_config_fields(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps({"type": "A2", "prime": 3, "index": 1}))
    code, out, _ = run_cli(
        capsys, "rootinfo", "--config", str(cfg), "--type", "B2",
        "--format", "json", "--no-banner")
    assert code == 0
    assert json.loads(out)["type"] == "B2"


# Each config key that has a flag, a value other than its default and a
# command whose output shows it.
_KEYS_WITH_FLAGS = {
    "type": ("B2", ["rootinfo"]),
    "lattice": ("simply_connected", ["rootinfo", "--type", "A2"]),
    "prime": (2, ["restriction-image", "--type", "A2"]),
    "index": (9, ["restriction-image", "--type", "A2", "--degree", "2"]),
    "degree": (2, ["chow", "--type", "A2"]),
    "max_degree": (2, ["verify-theorem", "--type", "A2", "--index", "9"]),
    "format": ("json", ["rootinfo", "--type", "A2"]),
}


@pytest.mark.parametrize("key", sorted(_KEYS_WITH_FLAGS))
def test_a_config_key_and_its_flag_give_the_same_output(tmp_path, capsys,
                                                        key):
    value, argv = _KEYS_WITH_FLAGS[key]
    cfg = tmp_path / "one_key.json"
    cfg.write_text(json.dumps({key: value}))
    flag = "--" + key.replace("_", "-")
    _, default, _ = run_cli(capsys, *argv, "--no-banner")
    code, from_flag, _ = run_cli(capsys, *argv, flag, str(value),
                                 "--no-banner")
    assert code == 0 and from_flag != default
    code, from_file, _ = run_cli(capsys, *argv, "--config", str(cfg),
                                 "--no-banner")
    assert code == 0 and from_file == from_flag


def test_flags_and_config_keys_are_scenario_config_fields():
    # one name per input: a flag's dest, its config key and its field
    fields = set(cli.ScenarioConfig._fields)
    assert set(cli._CONFIG) <= fields
    parser = cli._build_parser()
    for command in cli._COMMANDS:
        extra = ["--verify", "firsteq"] if command == "oracle" else []
        dests = set(vars(parser.parse_args([command, *extra]))) - {"config"}
        assert dests <= fields, command


def test_a_null_config_value_counts_as_left_out(tmp_path, capsys):
    cfg = tmp_path / "nulls.json"
    cfg.write_text(json.dumps({key: None for key in cli._CONFIG}))
    argv = ("verify-theorem", "--type", "A2", "--no-banner")
    _, without, _ = run_cli(capsys, *argv)
    code, out, _ = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0 and out == without


def test_wrong_kac_config_fails_the_crosscheck(tmp_path, capsys):
    cfg = tmp_path / "badkac.json"
    cfg.write_text(json.dumps({
        "type": "E6", "lattice": "adjoint", "prime": 3, "index": 27,
        "kac": {"degrees": [1, 4], "exponents": [1, 1]},
    }))
    code, out, _ = run_cli(
        capsys, "jconstrain", "--config", str(cfg),
        "--format", "json", "--no-banner")
    assert code == 1
    payload = json.loads(out)
    assert payload["crosscheck"]["applied"] is True
    assert payload["crosscheck"]["matches"] is False


def test_correct_scenario_passes_the_crosscheck(capsys):
    code, out, _ = run_cli(
        capsys, "jconstrain", "--type", "E6", "--prime", "3",
        "--index", "9", "--format", "json", "--no-banner")
    assert code == 0
    payload = json.loads(out)
    assert payload["crosscheck"] == {
        "applied": True, "expected": [2], "matches": True,
    }
    assert payload["degree_one"][0]["admissible"] == [2]


# -- usage errors ----------------------------------------------------------------


def expect_usage_error(capsys, *argv, needle):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert needle in err


def test_nonprime_modulus(capsys):
    expect_usage_error(
        capsys, "chow", "--type", "A2", "--prime", "4", "--no-banner",
        needle="p must be prime")


def test_unknown_type(capsys):
    expect_usage_error(
        capsys, "weyl", "--type", "Q9", "--no-banner",
        needle="unknown type letter")


def test_full_enumeration_guard_is_a_usage_error(capsys):
    expect_usage_error(
        capsys, "weyl", "--type", "E8", "--no-banner",
        needle="refusing full enumeration of W(E8)")


def test_truncated_enumeration_guard_refuses_before_enumerating(capsys):
    # 1,451,199 elements of length <= 20: refused from the Poincare
    # polynomial, before the BFS allocates anything
    started = time.perf_counter()
    expect_usage_error(
        capsys, "weyl", "--type", "E8", "--max-length", "20", "--no-banner",
        needle="1451199 elements exceed the size guard 1000000")
    assert time.perf_counter() - started < 1.0


def test_degree_cap_beyond_p(capsys):
    expect_usage_error(
        capsys, "restriction-image", "--type", "A2", "--prime", "2",
        "--index", "2", "--degree", "3", "--no-banner",
        needle="ideal comparisons need degree <= p")


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"type": "A2", "primes": 3}')
    expect_usage_error(
        capsys, "weyl", "--config", str(cfg), "--no-banner",
        needle="unknown key 'primes'")


def expect_refused_config(capsys, cfg, *argv, needle):
    code, out, err = run_cli(
        capsys, *argv, "--config", str(cfg), "--no-banner")
    assert (code, out) == (2, "")
    assert needle in err


@pytest.mark.parametrize("text, key", [
    ('{"prime": 3, "prime": 5}', "prime"),
    ('{"brauer": {"ind": {"0": 1, "1": 2, "1": 4}}}', "1"),
], ids=["top", "nested"])
def test_a_config_key_given_twice_is_refused(tmp_path, capsys, text, key):
    cfg = tmp_path / "twice.json"
    cfg.write_text(text)
    needle = f"config {cfg}: key {key!r} given twice"
    with pytest.raises(cli.UsageError) as exc:
        cli._read_config_file(str(cfg))
    assert str(exc.value) == needle
    expect_refused_config(capsys, cfg, "verify-theorem", "--type", "B3",
                          "--prime", "2", needle=needle)


@pytest.mark.parametrize("dynkin, prime, ind", [
    ("B3", "2", {"0": 1, "1": 2, "01": 4}),
    ("E6", "3", {"0": 1, "1": 3, "2": 3, "01": 9}),
])
def test_two_labels_of_one_class_are_refused(tmp_path, capsys, dynkin, prime,
                                             ind):
    cfg = tmp_path / "labels.json"
    cfg.write_text(json.dumps({"brauer": {"ind": ind}}))
    expect_refused_config(
        capsys, cfg, "verify-theorem", "--type", dynkin, "--prime", prime,
        needle="labels '1' and '01' both name the class 1")


@pytest.mark.parametrize("content,needle", [
    (b'{"type": "A2",\n', "line 2"),
    (b'{"type": "\xff\xfe"}', "'utf-8' codec can't decode byte 0xff"),
], ids=["truncated", "not-utf-8"])
def test_broken_config_reports_the_line(tmp_path, capsys, content, needle):
    cfg = tmp_path / "broken.json"
    cfg.write_bytes(content)
    expect_usage_error(
        capsys, "weyl", "--config", str(cfg), "--no-banner",
        needle=f"config {cfg}: {needle}")


def test_partial_brauer_map_names_missing_elements(tmp_path, capsys):
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps({
        "type": "A2", "prime": 3, "brauer": {"ind": {"0": 1}},
    }))
    expect_usage_error(
        capsys, "restriction-image", "--config", str(cfg), "--no-banner",
        needle="missing index values for elements: 1, 2")


def test_uniform_index_conflicts_with_brauer_map(tmp_path, capsys):
    cfg = tmp_path / "both.json"
    cfg.write_text(json.dumps({
        "type": "A2", "prime": 3,
        "brauer": {"ind": {"0": 1, "1": 3, "2": 3}},
    }))
    expect_usage_error(
        capsys, "restriction-image", "--config", str(cfg),
        "--index", "3", "--no-banner",
        needle="not both")


@pytest.mark.parametrize("argv, needle", [
    (("weyl", "--type", "A2", "--max-length", "-1"),
     "max_length must be between 0 and 120"),
    (("oracle", "--verify", "firsteq", "--max-i", "-3"),
     "max_i must be between 1 and 6"),
    (("oracle", "--verify", "firsteq", "--max-i", "7"),
     "max_i must be between 1 and 6"),
    (("oracle", "--verify", "gammatoc", "--max-bundles", "-1"),
     "max_bundles must be between 1 and 6"),
    (("oracle", "--verify", "binomial", "--max-mult", "100000"),
     "max_mult must be between 1 and 24"),
    (("chow", "--type", "A2", "--prime", str(10**30 + 57)),
     "prime must be between 2 and 1000"),
    (("chow", "--type", "A2", "--prime", "7" * 400),
     "prime must be between 2 and 1000"),
])
def test_integer_inputs_are_bounded(capsys, argv, needle):
    expect_usage_error(capsys, *argv, "--no-banner", needle=needle)


_LATTICE_VECTORS = ('config field "lattice" must be a keyword or a list of '
                    "integer weight vectors")


@pytest.mark.parametrize("data, needle", [
    ({"prime": True}, "prime must be an integer"),
    ({"index": True}, "index must be an integer"),
    ({"degree": "2"}, "degree must be an integer"),
    ({"brauer": {"ind": {"0": 1, "1": 3, "2": 10**10}}},
     "brauer.ind['2'] must be between 1 and 1000000000"),
    ({"kac": {"degrees": [1], "exponents": [True]}},
     "kac.exponents[0] must be an integer"),
    ({"kac": {"degrees": [1], "exponents": [10**9]}},
     "kac.exponents[0] must be between 1 and 120"),
    ({"lattice": [[1.7, 0]]}, _LATTICE_VECTORS),
    ({"lattice": [["1", True]]}, _LATTICE_VECTORS),
])
def test_config_integers_are_checked(tmp_path, capsys, data, needle):
    cfg = tmp_path / "ints.json"
    cfg.write_text(json.dumps({"type": "A2", **data}))
    expect_usage_error(
        capsys, "restriction-image", "--config", str(cfg), "--no-banner",
        needle=needle)


def test_oversized_integer_in_config(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"prime": ' + "7" * 5000 + "}")
    expect_usage_error(
        capsys, "chow", "--config", str(cfg), "--no-banner",
        needle="Exceeds the limit")


# sha256 of the option lines of every --help page at COLUMNS=80: the
# indented lines after the usage, whose layout does not depend on the
# Python version (the section headers and usage wrapping do).  Recorded
# before flags, config keys and ScenarioConfig fields shared one name.
HELP_OPTION_DIGESTS = {
    "--help":
        "dc29c724db6baff8fc61a4fff3a4abaef70603c5450d6992509cf35cd27653cf",
    "rootinfo --help":
        "2017e771a5ec0dbb818ffac4ee887c516d46fb96138cbaf333c419722dee18a1",
    "weyl --help":
        "2ccad71cf873482513ae2f6d2617bef40aefb94c0565760cc41417bfa99f435c",
    "chow --help":
        "c421d3486446138364740ec5270657f1aed121fdb48ac8f247c1c009e4d5baf6",
    "steinberg --help":
        "2017e771a5ec0dbb818ffac4ee887c516d46fb96138cbaf333c419722dee18a1",
    "restriction-image --help":
        "f1f5db49f4b34179be8d529665fda452dec925e5fb6bd3e7238f550896972920",
    "jconstrain --help":
        "cb1d7318f16b6068c21ad7639a88f11f4c628eea72c97ee7e201b3eddb4a8143",
    "verify-theorem --help":
        "d338ef081379c1c9e70bca01e119aed8de39224a6e2718ec7533073ff613cfeb",
    "oracle --help":
        "d97be73c584910083c54071b292cf1d3774e54e51e30ddab56c7122e669687ae",
}


@pytest.mark.parametrize("argv", sorted(HELP_OPTION_DIGESTS))
def test_help_option_lines_keep_their_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(argv.split())
    body = capsys.readouterr().out.split("\n\n", 1)[1]
    lines = [line for line in body.splitlines() if line.startswith("  ")]
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == HELP_OPTION_DIGESTS[argv])


def test_help_states_the_caps(capsys):
    with pytest.raises(SystemExit):
        main(["oracle", "--help"])
    out = capsys.readouterr().out
    assert "largest chern degree; 1 to 6" in out
    assert "prime modulus (default 3); 2 to 1000" in out


def test_an_unknown_command_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bogus"])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    choices = ", ".join(f"'{c}'" for c in (
        "rootinfo", "weyl", "chow", "steinberg", "restriction-image",
        "jconstrain", "verify-theorem", "oracle"))
    assert f"invalid choice: 'bogus' (choose from {choices})" in err


def test_a_bad_flag_names_its_command_in_the_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["steinberg", "--type", "A2", "--prime", "two"])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.startswith("usage: gammaflag steinberg ")
    assert ("gammaflag steinberg: error: argument --prime: invalid int "
            "value: 'two'") in err


def test_missing_presentation_is_a_usage_error(capsys):
    expect_usage_error(
        capsys, "jconstrain", "--type", "A1", "--prime", "2",
        "--index", "2", "--no-banner",
        needle="no bundled presentation")


# -- module entry point ---------------------------------------------------------


def module_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_module(*argv, env=None, **kwargs):
    return subprocess.run([sys.executable, "-m", "gammaflag", *argv],
                          capture_output=True, timeout=60,
                          env=env or module_env(), **kwargs)


# counts the Smith normal forms that one command takes in a fresh process
COUNT_SNF = """
import sys
from gammaflag import cli, intmat
calls, snf = [], intmat.snf
def counted(a):
    calls.append(a)
    return snf(a)
intmat.snf = counted
code = cli.main(sys.argv[1:] + ["--format", "tsv", "--no-banner"])
print(code, len(calls), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["restriction-image", "--type", "E6", "--prime", "5", "--degree", "1"],
    ["jconstrain", "--type", "E6", "--prime", "3", "--index", "3"],
    ["rootinfo", "--type", "E6"]])
def test_the_adjoint_lattice_takes_one_smith_normal_form(argv):
    # the adjoint lattice is the fundamental group's, not a second
    # CharacterLattice of the same generators
    proc = subprocess.run([sys.executable, "-c", COUNT_SNF, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=module_env())
    assert proc.stderr.split() == ["0", "1"], proc.stderr


def test_python_dash_m_matches_in_process_output():
    proc = run_module("steinberg", "--type", "A2", "--format", "tsv",
                      "--no-banner", text=True)
    assert proc.returncode == 0
    assert proc.stdout == A2_STEINBERG_TSV
    assert proc.stderr == ""


def test_an_unbuffered_pipe_gets_the_listing_bytes():
    proc = run_module("steinberg", "--type", "D5", "--format", "tsv",
                      "--no-banner", env=module_env(PYTHONUNBUFFERED="1"))
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (
        STEINBERG_DIGESTS["D5", "tsv"])
    assert proc.stderr == b""


@pytest.mark.parametrize("unbuffered", ["1", ""],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv,first_line", [
    # 2.7 MB, far past what the pipe holds: the reader leaves as `head -1` does
    (("steinberg", "--type", "E6", "--format", "tsv"), b"word\trho\tclass\n"),
    # a few hundred bytes: buffered, they wait for the flush to find no reader
    (("rootinfo", "--type", "A2"), None),
], ids=["e6-listing", "a2-rootinfo"])
def test_a_reader_that_closes_the_pipe_ends_the_run_quietly(
        argv, first_line, unbuffered):
    read_end, write_end = os.pipe()
    if first_line is None:
        os.close(read_end)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gammaflag", *argv, "--no-banner"],
        stdout=write_end, stderr=subprocess.PIPE,
        env=module_env(PYTHONUNBUFFERED=unbuffered))
    os.close(write_end)
    try:
        if first_line is not None:
            with open(read_end, "rb") as reader:
                assert reader.readline() == first_line
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()
