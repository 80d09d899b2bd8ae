"""Smoke test for the output fingerprint tool (tests/fingerprint.py)."""

import fingerprint


def _digests(capsys, seed):
    assert fingerprint.main(["--size", "tiny", "--seed", str(seed)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["history", "fit", "evaluate", "neighbors",
                                                    "explain", "dataset"]
    assert len(lines[0].split()) == 1 + fingerprint.EPOCHS
    assert all(len(line.split()[1]) == 64 for line in lines[1:])
    return lines


def test_two_runs_print_the_same_digests(capsys):
    first = _digests(capsys, 3)
    assert _digests(capsys, 3) == first
    other = _digests(capsys, 4)
    assert all(a != b for a, b in zip(first, other))  # each digest reads its outputs
