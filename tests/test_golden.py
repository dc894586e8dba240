"""Byte identity of whole CLI reports on generated inputs.

Each case pins the exit code and the SHA-256 of stdout for one command on
``gen random --n 40 --m 3000 --kmin 2 --kmax 8 --seed 11`` (``n40``),
``gen random --n 18 --m 40 --kmin 2 --kmax 4 --seed 7`` (``r18``),
``gen complete --n 16 --k 2`` (``k16``) or ``gen complete --n 20 --k 3``
(``k20``), read on stdin so that the reports name no path, or for one
seeded ``verify --random`` battery.  The n40
hashes were recorded from the per-edge Python loops that the edge-index
passes replaced, so a rewrite of any pass over the edge list that changes
one byte of a report fails here.  The n40 spectrum, cuts and verify hashes
were recorded again when the warm-started eigensolver moved four
eigenvalues of n40 (and lambda_n times 10) by one unit in their last
printed digit, each onto the rounding of a 40-digit reference solve; the
bounds hash did not change.  n40 is above the subset scan's byte
budget, so the r18, k16, k20 and battery cases pin the exact path: the
subset scan, the
sandwich and quadratic-identity checks and the cut bounds.  In k16 and k20
every subset of a given size has the same boundary, so their witnesses rest
on the tie-breaking rule alone; k20 is the largest scan and the largest m
(1140) of any pin.  The battery hashes were recorded when each instance's
spectrum was solved alone; batteries are now solved in stacked chunks of
same-size instances.  The n12 battery (chunks of 28) crosses a chunk edge,
and the n5 battery mixes connected, disconnected and edgeless-vertex
instances in one chunk.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from hyperlap import cli

GEN = {
    "n40": ["gen", "random", "--n", "40", "--m", "3000", "--kmin", "2", "--kmax", "8",
            "--seed", "11"],
    "r18": ["gen", "random", "--n", "18", "--m", "40", "--kmin", "2", "--kmax", "4",
            "--seed", "7"],
    "k16": ["gen", "complete", "--n", "16", "--k", "2"],
    "k20": ["gen", "complete", "--n", "20", "--k", "3"],
}
HALF = ",".join(str(v) for v in range(20))


@pytest.fixture(scope="module")
def texts():
    out = {}
    for name, argv in GEN.items():
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stdout", buf)
            assert cli.run(argv) == 0
        out[name] = buf.getvalue()
    return out


def test_generated_input_is_pinned(texts):
    digests = {name: hashlib.sha256(t.encode()).hexdigest() for name, t in texts.items()}
    assert digests == {
        "n40": "7c4b8c7cc3af6330323a3d117f9c2a246cdafc1a85735ab0a0959589e3d10d67",
        "r18": "7621c1431a8b8a2cb77e24eed269d6f22f1b95c12742dddbc2626f6419c7acd0",
        "k16": "c7afdce350afa95c2ae81e6c117a42c88ee5e369a81016a1d98cb8111306f82a",
        "k20": "dd4208839637569953c304568417f4c3ef669bdc88485527a56a7ae5cbfe3e5c",
    }


@pytest.mark.parametrize(
    "stdin, argv, digest",
    [
        ("n40", ["spectrum", "-"],
         "e37af7b4a34d98808234f28a07f11e2bb403a5138540dae8a0fe06eedaff772a"),
        ("n40", ["bounds", "-"],
         "daf0d82bf73f9b2bb6ede83cf15b050f89cc07918d53919945f3e1244f517c6f"),
        ("n40", ["cuts", "-", "--subset", HALF],
         "b32289ada38bf2f743fe254673a4860b6850ff5306015d423384d806bd80f1ad"),
        ("n40", ["cuts", "-", "--sweep"],
         "eefaa167d745019920fe1922221c31e0724a66235cf819035a7045825815a135"),
        ("n40", ["verify", "-"],
         "d1665133f0d253dd4ddc4569d4ec305529cb71582499b56d26f52ae53366f531"),
        ("r18", ["verify", "-"],
         "e6fc8341f17a47c4f21c08fbe836e7568719e6207fe02e5f7209ffbe3451c88d"),
        ("r18", ["cuts", "-", "--exact"],
         "ab71defd492fea429b003e8c067b329ea8ec8cdeafc5d5f9a60f708bd763458f"),
        ("r18", ["cuts", "-", "--sweep"],
         "7e0d0dd2013659b3dc1c7f64e445676c61b12898628e6c28528d6518e73f9189"),
        ("r18", ["bounds", "-"],
         "fe08abc1a7e4a8a99f798d632e0a05bd35f2f77da70f6b374070a0d99f2d62d3"),
        ("r18", ["spectrum", "-"],
         "7eb44f445e7b3b3c3f81f31d7f8cdbb8df595b1ff890c81e67b98fa9428de293"),
        ("k16", ["cuts", "-", "--exact"],
         "bbef697bbe8ecc089b5daccae5b982267507a601a3b472a918c3929f0ec38dd7"),
        ("k16", ["verify", "-"],
         "8b8c8793981a448486f4daa428e5ddaa2c4050a859fbb6249429041ec4afe8e8"),
        ("k20", ["cuts", "-", "--exact"],
         "95a4fbe4ea616e4ae7aee6289a82076979757ea3a2e07f1cd7fac4d47b856b37"),
        (None, ["verify", "--random", "12", "20", "2", "4", "40", "99"],
         "3e1e0f354e356b8d8024616f9fa594f246df01f08e3df86eb6322d0081915301"),
        (None, ["verify", "--random", "8", "6", "2", "4", "100", "12345"],
         "72aff4cc3b6030298f354e8de92aa9b5e0a1854b46b26ebf574b2250b0b09aa4"),
        (None, ["verify", "--random", "5", "2", "2", "4", "60", "3"],
         "954e86a6f0a65e8c65651d7bf10a28f6d11779a677a533f23cf8b56c12eee043"),
    ],
    ids=["spectrum", "bounds", "cuts-subset", "cuts-sweep", "verify",
         "r18-verify", "r18-cuts-exact", "r18-cuts-sweep", "r18-bounds",
         "r18-spectrum", "k16-cuts-exact", "k16-verify", "k20-cuts-exact", "battery-n12",
         "battery-n8", "battery-n5-chunks"],
)
def test_report_bytes_are_pinned(capsys, monkeypatch, texts, stdin, argv, digest):
    if stdin is not None:
        data = texts[stdin].encode()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
