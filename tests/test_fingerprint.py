"""Tests of the output fingerprint tool (tests/fingerprint.py) and of the committed
fingerprints (tests/fingerprints.txt)."""

import os

import pytest

import fingerprint

TRAIN_LINES = ["history", "fit", "evaluate", "neighbors"]
COMMITTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.txt")


def _digests(capsys, seed, *args):
    assert fingerprint.main(["--size", "tiny", "--seed", str(seed), *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = TRAIN_LINES + ([] if args else ["explain", "dataset"])
    assert [line.split()[0] for line in lines] == names
    assert len(lines[0].split()) == 1 + fingerprint.EPOCHS
    assert all(len(line.split()[1]) == 64 for line in lines[1:])
    return lines


def _committed():
    """(env lines as a dict, {argv string: output lines}) of the committed file."""
    env, sections, lines = {}, {}, None
    with open(COMMITTED, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("env "):
                _, key, value = line.split(" ", 2)
                env[key] = value
            elif line.startswith("$ python tests/fingerprint.py "):
                lines = sections[line.split(" ", 3)[3]] = []
            elif line and not line.startswith("#"):
                lines.append(line)
    return env, sections


def test_two_runs_print_the_same_digests(capsys):
    first = _digests(capsys, 3)
    assert _digests(capsys, 3) == first
    other = _digests(capsys, 4)
    assert all(a != b for a, b in zip(first, other))  # each digest reads its outputs


def test_an_ablation_prints_its_train_digests(capsys):
    default = dict(line.split(maxsplit=1) for line in _digests(capsys, 3))
    ablated = dict(line.split(maxsplit=1) for line in _digests(capsys, 3, "--disable", "par"))
    # no semantic branch: other trained slots, other ranks, and a zero space for the
    # disjunction's index
    assert ablated["fit"] != default["fit"]
    assert ablated["evaluate"] != default["evaluate"]
    assert ablated["neighbors"] != default["neighbors"]


@pytest.mark.parametrize("seed, args", [(3, ()), (4, ()), (3, ("--disable", "par"))])
def test_tiny_runs_print_the_committed_lines(capsys, seed, args):
    env, sections = _committed()
    here = fingerprint.environment()
    differ = {k: (env.get(k), v) for k, v in here.items() if env.get(k) != v}
    if differ:
        pytest.skip("fingerprints.txt was taken in another environment (committed, here): "
                    f"{differ}")
    command = " ".join(["--size", "tiny", "--seed", str(seed), *args])
    assert _digests(capsys, seed, *args) == sections[command]
