"""Smoke test for the output fingerprint tool (tests/fingerprint.py)."""

import fingerprint

TRAIN_LINES = ["history", "fit", "evaluate", "neighbors"]


def _digests(capsys, seed, *args):
    assert fingerprint.main(["--size", "tiny", "--seed", str(seed), *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = TRAIN_LINES + ([] if args else ["explain", "dataset"])
    assert [line.split()[0] for line in lines] == names
    assert len(lines[0].split()) == 1 + fingerprint.EPOCHS
    assert all(len(line.split()[1]) == 64 for line in lines[1:])
    return lines


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
