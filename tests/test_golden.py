"""Byte identity of whole CLI reports on a large generated input.

Each case pins the exit code and the SHA-256 of stdout for one command on
``gen random --n 40 --m 3000 --kmin 2 --kmax 8 --seed 11``, read on stdin so
that the reports name no path.  The hashes were recorded from the per-edge
Python loops that the edge-index passes replaced, so a rewrite of any pass
over the edge list that changes one byte of a report fails here.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from hyperlap import cli

GEN = ["gen", "random", "--n", "40", "--m", "3000", "--kmin", "2", "--kmax", "8",
       "--seed", "11"]
HALF = ",".join(str(v) for v in range(20))


@pytest.fixture(scope="module")
def text():
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdout", out)
        assert cli.run(GEN) == 0
    return out.getvalue()


def test_generated_input_is_pinned(text):
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "7c4b8c7cc3af6330323a3d117f9c2a246cdafc1a85735ab0a0959589e3d10d67"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["spectrum", "-"],
         "756c43ac6fdf3d97d633e95f503a24f572c2dfffce45f046f6bdb8462cd606ba"),
        (["bounds", "-"],
         "daf0d82bf73f9b2bb6ede83cf15b050f89cc07918d53919945f3e1244f517c6f"),
        (["cuts", "-", "--subset", HALF],
         "6d3b8b89cd93d3994f2163a746bf28d7bc2a3eb03ca096bf57a6483063b500bb"),
        (["cuts", "-", "--sweep"],
         "a3175ccb544e8ff608697b5a6e4c9444ee8751f397b9ca173eb1a9ea879dab9b"),
        (["verify", "-"],
         "9373281ffcfb50111de1ded7051c1e963284e7057d576adfe883c8364897a3ca"),
    ],
    ids=["spectrum", "bounds", "cuts-subset", "cuts-sweep", "verify"],
)
def test_report_bytes_are_pinned(capsys, monkeypatch, text, argv, digest):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
