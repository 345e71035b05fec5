"""The n = 20 fingerprint sweep against the lines recorded in ``fingerprint_n20.txt``.

The recorded file fixes the round-off of one environment, the one its
``# key value`` header names (``trlbfgs.bench.environment``).  Where the
environment matches the header, any difference fails and names the first
solve that moved.  Elsewhere a sweep that matches still passes, and one
that does not is skipped with the differences in its reason: another numpy
or BLAS may sum and dot in another order, so a difference there shows
nothing about the code.  A change that moves round-off on purpose rewrites
the file with the command in ``fingerprint.py``.
"""

import pytest

from trlbfgs.bench import environment

import fingerprint


def _recorded() -> tuple[dict[str, str], list[str]]:
    """The file's header as a dict, and its result and trace lines."""
    header, lines = {}, []
    for line in fingerprint.RECORDED.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            header[key] = value
        else:
            lines.append(line)
    return header, lines


def test_n20_sweep_matches_the_recorded_fingerprint(capsys):
    header, recorded = _recorded()
    fingerprint.main(["--sizes", "20", "--no-large", "--keep-trace"])
    swept = capsys.readouterr().out.splitlines()
    assert len(swept) == len(recorded) == 90, f"the sweep has {len(swept)} lines, the file {len(recorded)}"
    # Each solve is a result line and its trace line.
    moved = [i for i in range(0, len(recorded), 2) if swept[i : i + 2] != recorded[i : i + 2]]
    if not moved:
        return
    first = moved[0]
    solve = " ".join(recorded[first].split()[:3])
    message = (
        f"{len(moved)} of {len(recorded) // 2} solves differ from {fingerprint.RECORDED.name};"
        f" the first is {solve}:\n"
        f"  recorded {recorded[first]}\n           {recorded[first + 1]}\n"
        f"  now      {swept[first]}\n           {swept[first + 1]}"
    )
    env = environment()
    changed = ", ".join(f"{k} {header.get(k)} -> {v}" for k, v in env.items() if header.get(k) != v)
    if changed:
        pytest.skip(f"environment differs from the recorded one ({changed}); {message}")
    pytest.fail(message)
