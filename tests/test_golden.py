"""Golden outputs: the SHA-256 of the stdout of fixed CLI runs.

Four verify runs cover the exhaustive n = 3 suite over both fields and two
seeded sampled suites, so any change to a verdict, a check, an observation or
the order of the JSON lines changes a digest.  The n = 6 run is there for its
partial instances (two permutation, one add-trivial-on, one duplicate),
which pin the names and notes of the checks that stand in for an
uncertified partition.

The commands that are not suites (analyze, cmin, mh, homology, dual) each
get one digest per field over the same inputs: seeded codes with n = 3 to 8
at three densities, and the cone over RP^2, whose apex stays unknown over Q.
"""

import hashlib

import pytest

from conftest import RP2_FACETS
from obstrukt.cli import main
from obstrukt.codes import NotationForm, format_codeword
from obstrukt.randgen import random_code

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


def _inline(code) -> str:
    return ",".join(format_codeword(c, NotationForm.WORD) for c in code.sorted_words())


COMMAND_INPUTS = [
    (n, _inline(random_code(n, 10 * n + k, density)))
    for n in range(3, 9)
    for k, density in enumerate((0.15, 0.3, 0.6))
] + [(7, ",".join(f + "7" for f in RP2_FACETS))]

COMMAND_GOLDEN = {
    ("analyze", "GF2"): "9c9168ffd6bf8db0c56029739715b86084dd3ef736563b3747536f06d743d75a",
    ("analyze", "Q"): "803e058c56cd31b15f53b79d4fefd3281617d14e2dbee6c19b08dfe565243e96",
    ("cmin", "GF2"): "407f688abc884e6a9402f97c69a58dd6d444d51f42bf50f253463c28465a8835",
    ("cmin", "Q"): "d1a9a0df97acd8c24779744af9f17f2e8de3859f2d4c4cbd07241bca6e1babfc",
    ("mh", "GF2"): "c8169a59876041b1e4be5408b4080569ec12f6d048cf99ec2f42af1305a8407b",
    ("mh", "Q"): "23aa5dca3d366abca9e67ae7f26734ea2f6ce175593db5f3a1e52c257e77c5d2",
    ("homology", "GF2"): "aae15b9da4c9ce6830075e3db6a9bce1a7232c384fe03dbb3c65ccc673461b96",
    ("homology", "Q"): "3a33e8096f12df2757ae87fe9dfe50f1313f9faec24adbb635a9fdc25f885530",
    ("dual", "GF2"): "ac884b2c41104db5a663d7f48735e59f86587fe31edd35f6d27588e6399e0a0a",
    ("dual", "Q"): "ac884b2c41104db5a663d7f48735e59f86587fe31edd35f6d27588e6399e0a0a",
}


@pytest.mark.parametrize("command,field", sorted(COMMAND_GOLDEN))
def test_command_digest(command, field, capsys):
    for n, text in COMMAND_INPUTS:
        assert main([command, "--field", field, "--n", str(n), "--code", text]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == COMMAND_GOLDEN[command, field]
