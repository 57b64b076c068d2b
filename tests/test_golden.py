"""Golden outputs: the SHA-256 of the stdout of fixed CLI runs.

Six verify runs cover the exhaustive n = 3 suite over both fields and four
seeded sampled suites, so any change to a verdict, a check, an observation or
the order of the JSON lines changes a digest.  The exhaustive runs are
repeated with ``--jobs 2`` against the same digests.  The n = 6 run is there for its
partial instances (two permutation, one add-trivial-on, one duplicate),
which pin the names and notes of the checks that stand in for an
uncertified partition.  The two n = 12 runs, one per field, reach the sizes
where link cores are dense and their ranks dominate.

The commands that are not suites (analyze, cmin, mh, homology, dual) each
get one digest per field over the same inputs: seeded codes with n = 3 to 8
at three densities, and the cone over RP^2, whose apex stays unknown over Q.
The commands whose output does not depend on the field (random, map with
each of its six ops, and link at the first word of each input) get one
digest per output format instead.
"""

import hashlib

import pytest

from conftest import RP2_FACETS
from obstrukt.cli import main
from obstrukt.codes import Codeword, NotationForm, format_codeword
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
    "sampled_n12_seed1_gf2": (
        ["verify", "--n", "12", "--samples", "3", "--seed", "1", "--field", "GF2"],
        "f823c69400da8678eec672bbb544ce0c5be685ecf446c5402c1cd7ad06c65201",
    ),
    "sampled_n12_seed1_q": (
        ["verify", "--n", "12", "--samples", "3", "--seed", "1", "--field", "Q"],
        "5da2aff07b4be6411e14a55ec30e9d18ac890cc3d3354de6fc5cbb3b6dc0e951",
    ),
}
# Output does not depend on --jobs: the pooled exhaustive runs print the serial bytes.
GOLDEN.update({
    f"{name}_jobs2": ([*argv, "--jobs", "2"], digest)
    for name, (argv, digest) in list(GOLDEN.items())
    if name.startswith("exhaustive_n3")
})


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(name, capsys):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _inline(code) -> str:
    return ",".join(format_codeword(c, NotationForm.WORD) for c in sorted(code.words, key=Codeword.binary))


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


def _map_args(op: str, n: int, text: str) -> list[str]:
    """Each op's flags on an input: a rotation, the last neuron, the code itself."""
    extra = {
        "permute": ["--gamma", ",".join(str(i % n + 1) for i in range(1, n + 1))],
        "duplicate": [],
        "project": ["--delete", str(n)],
        "include": ["--target", text, "--target-n", str(n)],
    }
    return ["map", "--op", op, "--n", str(n), "--code", text, *extra.get(op, [])]


FORMAT_RUNS = {
    "random": [
        ["random", "--n", str(n), "--seed", str(seed), "--density", str(density), "--count", "2"]
        for n in range(3, 9)
        for seed in (0, 7, 1234)
        for density in (0.15, 0.3, 0.6)
    ],
    **{
        f"map_{op}": [_map_args(op, n, text) for n, text in COMMAND_INPUTS]
        for op in ("permute", "add-on", "add-off", "duplicate", "project", "include")
    },
    "link": [
        ["link", "--n", str(n), "--code", text, "--sigma", text.split(",")[0]]
        for n, text in COMMAND_INPUTS
    ],
}

FORMAT_GOLDEN = {
    ("link", "json"): "146b7839eb17abf204dfdfcd16a841b9b655d6e5a9909aa9a775d68be7363272",
    ("link", "text"): "0831f6fd984ae91e2f3f26bb13809d444e63029dc49409f3af36845e9dfee680",
    ("map_add-off", "json"): "59a2125f82973eb91d72ec46afe969969f0dc58c4dcf447ea424793c33d2a846",
    ("map_add-off", "text"): "45e51c1ec899cc7ab181493486166d8f3d8d349aae3d90aa9b2aae7cd2add1b1",
    ("map_add-on", "json"): "b0dad12a06a09f0f3b6095f70046af2271acf245358c2fba3d8e9898b4e99828",
    ("map_add-on", "text"): "25c6a49d3916d1293d4dc92f19a861d20ab5462714d5b4e681fca3771bde6513",
    ("map_duplicate", "json"): "d69f05f217885517bfccdf2ca8f17f6fda0edb9a57095daae0c157e14ea68416",
    ("map_duplicate", "text"): "169a8436afbc537988db9f7b626c472fb4189cc6a177c96c9dc518826969b41c",
    ("map_include", "json"): "7bb1114d66ed77626b5af3d1861f0d999ba3e435f139406a5f9fb0a0b39db840",
    ("map_include", "text"): "3d5378e76f81c2a79ab25b1aa85b38cfce3411e2943b4e2b6be33512e6e2ce80",
    ("map_permute", "json"): "d5df5cab493f59a21bd7df987f3017e20f8ee8638b1940fcef67d1280a5039d3",
    ("map_permute", "text"): "13cadf3b7d416db9b9720f1a682d75224d1189983281f950e49e17027ba8f183",
    ("map_project", "json"): "08626c0b74fc6e3ab46571d7aa59490a0b3fbe048c78bd6d920f22e971a6e2dd",
    ("map_project", "text"): "85cd029694e9dc354af483891324e351494ca196799f04c19668d3d6baa5d132",
    ("random", "json"): "34edc39df3206c53463a78d24ba5f3b9ef0044260659575ecb8e760ff24201d0",
    ("random", "text"): "0a413c9f0201a35cc776b748db724a69f45772115e62b56d08d0ed76847040bf",
}


@pytest.mark.parametrize("runs,output", sorted(FORMAT_GOLDEN))
def test_format_digest(runs, output, capsys):
    for argv in FORMAT_RUNS[runs]:
        assert main([*argv, "--output", output]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FORMAT_GOLDEN[runs, output]
