"""Golden outputs: the SHA-256 of the stdout of four fixed verify runs.

The runs cover the exhaustive n = 3 suite over both fields and two seeded
sampled suites, so any change to a verdict, a check, an observation or the
order of the JSON lines changes a digest.  The n = 6 run is there for its
partial instances (two permutation, one add-trivial-on, one duplicate),
which pin the names and notes of the checks that stand in for an
uncertified partition.
"""

import hashlib

import pytest

from obstrukt.cli import main

GOLDEN = {
    "exhaustive_n3_gf2": (
        ["verify", "--theorem", "all", "--exhaustive", "--n", "3", "--field", "GF2"],
        "790f8b21ea27d5abf165a9d2ca5c873b0367eb0c94946ba9b4aeecdbaab8156f",
    ),
    "exhaustive_n3_q": (
        ["verify", "--theorem", "all", "--exhaustive", "--n", "3", "--field", "Q"],
        "9db3f490e1b971077d9bbf25cb9e8194443e557f0cd1cbfd83ef4c97ae0684b7",
    ),
    "sampled_n5_seed1": (
        ["verify", "--n", "5", "--samples", "200", "--seed", "1"],
        "924a8b4db20f68675317181e0ddba68757822c61f21a1007eb2d4ec9c59c406f",
    ),
    "sampled_n6_seed167_partial": (
        ["verify", "--n", "6", "--samples", "1", "--seed", "167"],
        "0ba5ae52b24a88a52c4f5c538179315ae7379a7813c223b6bdf71ccc12e59be8",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(name, capsys, monkeypatch):
    monkeypatch.delenv("OBSTRUKT_FIELD", raising=False)  # the sampled run uses the default GF2
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
