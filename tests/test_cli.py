import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import obstrukt.complexes
import obstrukt.ideals
from obstrukt import Codeword, NotationForm, format_codeword
from obstrukt.cli import main

from conftest import neural_codes


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestMh:
    def test_pendant_example(self, capsys):
        status, out, _ = run_cli(capsys, "mh", "--n", "4", "--code", "123,24,2")
        assert status == 0
        assert json.loads(out) == {"mh": ["0100", "0101", "1110"]}

    def test_text_output(self, capsys):
        status, out, _ = run_cli(
            capsys, "mh", "--n", "4", "--code", "123,24,2", "--output", "text"
        )
        assert status == 0 and "M_H:" in out

    def test_byte_identical_repeat(self, capsys):
        _, first, _ = run_cli(capsys, "mh", "--n", "4", "--code", "123,24,2")
        _, second, _ = run_cli(capsys, "mh", "--n", "4", "--code", "123,24,2")
        assert first == second


class TestInputs:
    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "code.txt"
        path.write_text("n=4\n123\n24\n2\n", encoding="utf-8")
        status, out, _ = run_cli(capsys, "mh", "--input", str(path))
        assert status == 0
        assert json.loads(out)["mh"] == ["0100", "0101", "1110"]

    @pytest.mark.parametrize("command", [["mh"], ["verify", "--theorem", "duplicate"]])
    @pytest.mark.parametrize("extra,named", [
        (["--n", "5"], "--n"), (["--code", "12", "--n", "4"], "--code, --n"),
        (["--n", "0"], "--n"),  # 0 is given, though it equals False
    ])
    def test_file_input_takes_no_inline_code_flags(self, tmp_path, capsys, command, extra, named):
        path = tmp_path / "code.txt"
        path.write_text("n=4\n123\n24\n2\n", encoding="utf-8")
        status, out, err = run_cli(capsys, *command, "--input", str(path), *extra)
        assert status == 2 and out == "" and err.endswith(f"does not take {named}\n")

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("n=2\n12\n"))
        status, out, _ = run_cli(capsys, "mh", "--input", "-")
        assert status == 0
        assert json.loads(out)["mh"] == ["11"]

    def test_binary_form(self, capsys):
        status, out, _ = run_cli(
            capsys, "mh", "--n", "4", "--code", "1110,0101,0100", "--form", "binary"
        )
        assert status == 0
        assert json.loads(out)["mh"] == ["0100", "0101", "1110"]

    def test_parse_error_names_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n=3\n12\n1x\n", encoding="utf-8")
        status, _, err = run_cli(capsys, "mh", "--input", str(path))
        assert status == 2
        assert "line 3" in err and "column 2" in err

    def test_missing_header(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("12\n", encoding="utf-8")
        status, _, err = run_cli(capsys, "mh", "--input", str(path))
        assert status == 2 and "n=" in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
    def test_unreadable_file_is_bad_input(self, tmp_path, capsys, kind):
        path = tmp_path / "code.txt"
        if kind == "directory":
            path.mkdir()
        elif kind == "not utf-8":
            path.write_bytes(b"n=2\n\xff\n")
        try:
            path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            expected = f"obstrukt: input error: {exc}\n"
        status, out, err = run_cli(capsys, "mh", "--input", str(path))
        assert (status, out, err) == (2, "", expected)

    @pytest.mark.parametrize("fault", [OSError(28, "No space left on device"),
                                       ValueError("an internal fault")])
    def test_fault_inside_a_command_is_not_bad_input(self, capsys, monkeypatch, fault):
        """Only the package's own errors are input errors: any other
        exception raised by the engine goes out of ``main`` as it is."""
        def broken(*args):
            raise fault

        monkeypatch.setattr("obstrukt.cli.core_homology", broken)
        with pytest.raises(type(fault)) as exc:
            main(["homology", "--n", "3", "--code", "12,13,23"])
        assert exc.value is fault and capsys.readouterr().err == ""

    def test_inline_needs_n(self, capsys):
        status, _, err = run_cli(capsys, "mh", "--code", "12")
        assert status == 2

    def test_inline_set_form_multi_neuron_words(self, capsys):
        status, out, _ = run_cli(
            capsys, "mh", "--n", "4", "--form", "set", "--code", "{1,2,3}, {2,4},{2}"
        )
        assert status == 0
        assert json.loads(out) == {"mh": ["0100", "0101", "1110"]}

    def test_inline_set_form_error_column(self, capsys):
        status, _, err = run_cli(
            capsys, "mh", "--n", "3", "--form", "set", "--code", "{1,2}, {2,x}"
        )
        assert status == 2
        assert "line 1, column 11" in err


@pytest.mark.parametrize("form", list(NotationForm))
@given(data=st.data())
def test_inline_round_trip(form, data):
    # format each word, join with commas, and read the code back through the CLI
    c = data.draw(neural_codes(max_n=9 if form is NotationForm.WORD else 12))
    text = ",".join(format_codeword(cw, form) for cw in sorted(c.words, key=Codeword.binary))
    identity = ",".join(str(i) for i in range(1, c.n + 1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["map", "--n", str(c.n), "--form", form.value, "--code", text,
                       "--op", "permute", "--gamma", identity])
    assert status == 0
    assert json.loads(out.getvalue()) == {
        "n": c.n, "words": sorted(cw.binary() for cw in c.words)
    }


class TestAnalysis:
    def test_analyze_keys(self, capsys):
        status, out, _ = run_cli(capsys, "analyze", "--n", "4", "--code", "123,24,2")
        payload = json.loads(out)
        assert status == 0
        assert {"facets", "homology", "mh", "cmin_in", "cmin_out", "cmin_unknown",
                "sr_ideal", "dual_complex_facets", "field"} <= set(payload)

    def test_cmin(self, capsys):
        status, out, _ = run_cli(capsys, "cmin", "--n", "2", "--code", "12")
        payload = json.loads(out)
        assert payload["cmin_in"] == ["00", "11"]
        assert payload["cmin_out"] == ["01", "10"]
        assert payload["complex_verdict"] == "contractible"

    def test_homology_field_flag_beats_default(self, capsys):
        status, out, _ = run_cli(
            capsys, "homology", "--n", "3", "--code", "12,13,23", "--field", "GF2"
        )
        assert json.loads(out)["field"] == "GF2"

    def test_homology_of_the_full_simplex_on_64_neurons(self, capsys):
        # one word on all 64 neurons: a cone, answered without building faces
        start = time.perf_counter()
        status, out, _ = run_cli(
            capsys, "homology", "--n", "64", "--form", "binary", "--code", "1" * 64,
            "--field", "GF2",
        )
        assert time.perf_counter() - start < 1.0
        assert status == 0 and json.loads(out) == {"field": "GF2", "dims": {}}

    def test_link(self, capsys):
        status, out, _ = run_cli(
            capsys, "link", "--n", "6", "--code", "24,35,45,123", "--sigma", "2"
        )
        payload = json.loads(out)
        assert status == 0
        assert set(payload["faces"]) == {"000000", "100000", "001000", "000100", "101000"}

    def test_dual(self, capsys):
        status, out, _ = run_cli(capsys, "dual", "--n", "2", "--code", "1,2")
        payload = json.loads(out)
        assert payload["sr_ideal"] == [[1, 2]]
        assert payload["dual_ideal"] == [[1], [2]]

    @pytest.mark.parametrize("command", ["analyze", "dual"])
    def test_two_word_code_on_64_neurons(self, capsys, command):
        # the words {1,2} and {3,64}: 2 facets, and 64 minimal non-faces
        n = 64
        words = "1" * 2 + "0" * 62 + "," + "001" + "0" * 60 + "1"
        start = time.perf_counter()
        status, out, _ = run_cli(capsys, command, "--n", str(n), "--form", "binary",
                                 "--code", words)
        elapsed = time.perf_counter() - start
        assert status == 0
        assert elapsed < 2.0
        payload = json.loads(out)
        sr = payload["sr_ideal"]
        assert len(sr) == 64
        assert sorted(g for g in sr if len(g) == 2) == [[1, 3], [1, 64], [2, 3], [2, 64]]


class TestBergePasses:
    @pytest.mark.parametrize("command,passes", [("analyze", 1), ("dual", 1)])
    def test_minimal_transversal_passes(self, capsys, monkeypatch, command, passes):
        """Both read the minimal non-faces once; dual reads the Alexander dual
        of the Stanley-Reisner ideal off the facets."""
        original, calls = obstrukt.complexes.minimal_transversals, []

        def counted(edges):
            calls.append(command)
            return original(edges)

        for module in (obstrukt.complexes, obstrukt.ideals):
            monkeypatch.setattr(module, "minimal_transversals", counted)
        status, _, _ = run_cli(capsys, command, "--n", "4", "--code", "123,24,2")
        assert status == 0 and len(calls) == passes


class TestMap:
    @pytest.mark.parametrize("op,extra,flags", [
        ("add-on", ["--gamma", "2,1", "--delete", "7", "--target", "1", "--target-n", "5"],
         ["--gamma", "--delete", "--target", "--target-n"]),
        ("permute", ["--gamma", "2,1", "--source", "1"], ["--source"]),
        ("duplicate", ["--gamma", "2,1"], ["--gamma"]),
        ("project", ["--delete", "1", "--target-n", "2"], ["--target-n"]),
        ("include", ["--target", "12", "--target-n", "2", "--delete", "1"], ["--delete"]),
        # 0 is given, though it equals False
        ("add-on", ["--source", "0"], ["--source"]),
        ("add-off", ["--delete", "0", "--target-n", "0"], ["--delete", "--target-n"]),
    ])
    def test_rejects_flags_its_op_ignores(self, capsys, op, extra, flags):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "map", "--n", "2", "--code", "12", "--op", op, *extra)
        assert time.perf_counter() - start < 1.0
        assert status == 2 and out == "" and all(flag in err for flag in flags)

    def test_projection(self, capsys):
        status, out, _ = run_cli(
            capsys, "map", "--n", "4", "--code", "123,24,2", "--op", "project", "--delete", "4"
        )
        assert json.loads(out) == {"n": 3, "words": ["010", "111"]}

    def test_add_on(self, capsys):
        status, out, _ = run_cli(capsys, "map", "--n", "2", "--code", "12", "--op", "add-on")
        assert json.loads(out) == {"n": 3, "words": ["111"]}

    def test_permute(self, capsys):
        status, out, _ = run_cli(
            capsys, "map", "--n", "3", "--code", "12", "--op", "permute", "--gamma", "2,3,1"
        )
        assert json.loads(out) == {"n": 3, "words": ["101"]}


class TestRandom:
    def test_reproducible(self, capsys):
        _, first, _ = run_cli(capsys, "random", "--n", "3", "--seed", "7", "--count", "5")
        _, second, _ = run_cli(capsys, "random", "--n", "3", "--seed", "7", "--count", "5")
        assert first == second
        assert len(first.strip().splitlines()) == 5

    def test_density_one(self, capsys):
        _, out, _ = run_cli(capsys, "random", "--n", "2", "--seed", "0", "--density", "1")
        assert json.loads(out)["words"] == ["01", "10", "11"]

    def test_negative_count_rejected(self, capsys):
        status, out, err = run_cli(capsys, "random", "--n", "3", "--count", "-1")
        assert status == 2 and out == "" and "--count" in err

    @pytest.mark.parametrize("argv,named", [
        (["--n", "0"], "got 0"),
        (["--n", "99", "--density", "7"], "got 99"),
        (["--n", "3", "--density", "7"], "got 7.0"),
    ], ids=["n_0", "n_99_density_7", "density_7"])
    def test_no_codes_drawn_still_checks_n_and_density(self, capsys, argv, named):
        # --count 0 draws nothing, and is refused as --count 1 is
        for count in ("0", "1"):
            status, out, err = run_cli(capsys, "random", *argv, "--count", count)
            assert status == 2 and out == "" and named in err


class TestClosedStdout:
    """A reader that closes stdout early ends the run with status 141
    (128 + SIGPIPE) and no message."""

    def test_write_raising_broken_pipe(self, tmp_path, capsys, monkeypatch):
        with open(tmp_path / "out", "w") as target:
            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def flush(self):
                    pass

                def fileno(self):
                    return target.fileno()

            monkeypatch.setattr("sys.stdout", ClosedPipe())
            status = main(["random", "--n", "3", "--count", "5"])
            # stdout now writes to /dev/null, so flushing it at exit cannot fail
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        assert status == 141 and capsys.readouterr().err == ""

    def test_reader_closes_the_pipe(self):
        script = "import sys\nfrom obstrukt.cli import main\nsys.exit(main())\n"
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, "random", "--n", "10", "--count", "200"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            assert json.loads(proc.stdout.readline())["n"] == 10
            proc.stdout.close()  # about 800 kB are still to come
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141 and err == b""
        finally:
            proc.kill()
            proc.wait()


class TestVerify:
    def test_projection_instance(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "verify", "--theorem", "projection", "--n", "4", "--code", "123,24,2",
            "--delete", "4",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["verdict"] == "holds"
        assert payload["observations"]["mh_reverse_containment_holds"] is False

    def test_exhaustive_small(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--theorem", "all", "--exhaustive", "--n", "2", "--summary"
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["violated"] == 0
        assert payload["instances"] == 112

    @pytest.mark.parametrize("argv,flags", [
        (["--exhaustive", "--n", "2", "--summary", "--gamma", "9,9", "--source", "7",
          "--delete", "9"], ["--gamma", "--source", "--delete"]),
        (["--exhaustive", "--n", "2", "--samples", "3"], ["--exhaustive", "--samples"]),
        (["--n", "3", "--samples", "-2"], ["--samples"]),
        (["--n", "3", "--samples", "2", "--code", "12"], ["--code"]),
        (["--exhaustive", "--n", "2", "--input", "codes.txt"], ["--input"]),
        (["--exhaustive", "--n", "2", "--summary", "--seed", "5"], ["--seed"]),
        (["--exhaustive", "--n", "2", "--summary", "--density", "7"], ["--density"]),
        # 0 and 0.0 are given, though they equal False
        (["--theorem", "all", "--exhaustive", "--n", "2", "--seed", "0", "--summary"], ["--seed"]),
        (["--exhaustive", "--n", "2", "--summary", "--density", "0"], ["--density"]),
        (["--exhaustive", "--n", "2", "--summary", "--density", "0.0"], ["--density"]),
        (["--exhaustive", "--n", "2", "--summary", "--source", "0"], ["--source"]),
        (["--n", "3", "--samples", "2", "--delete", "0"], ["--delete"]),
        (["--n", "3", "--samples", "2", "--jobs", "-5"], ["--jobs"]),
        (["--n", "3", "--samples", "2", "--jobs", "0"], ["--jobs"]),
        (["--n", "3", "--samples", "1", "--output", "text"], ["--output"]),
        (["--exhaustive", "--n", "2", "--output", "text"], ["--output"]),
    ])
    def test_suite_mode_rejects_what_it_would_ignore(self, capsys, argv, flags):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "verify", *argv)
        assert time.perf_counter() - start < 1.0
        assert status == 2 and out == "" and all(flag in err for flag in flags)

    @pytest.mark.parametrize("flag,extra", [
        ("--summary", []), ("--seed", ["5"]), ("--density", ["0.5"]), ("--jobs", ["2"]),
        ("--source", ["9", "--theorem", "permutation"]),
        ("--delete", ["9", "--theorem", "permutation"]),
        # 0 and 0.0 are given, though they equal False
        ("--seed", ["0"]), ("--density", ["0"]), ("--density", ["0.0"]),
    ])
    def test_single_code_rejects_what_it_would_ignore(self, capsys, flag, extra):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "verify", "--n", "3", "--code", "12", flag, *extra)
        assert time.perf_counter() - start < 1.0
        assert status == 2 and out == "" and flag in err

    def test_gamma_checked_whatever_the_theorem(self, capsys):
        status, out, err = run_cli(capsys, "verify", "--n", "3", "--code", "12",
                                   "--theorem", "duplicate", "--gamma", "9,9,9")
        assert status == 2 and out == "" and "not a permutation" in err

    def test_suite_flags_left_out_take_the_suite_defaults(self, capsys):
        argv = ["verify", "--n", "3", "--samples", "4"]
        _, default, _ = run_cli(capsys, *argv)
        _, explicit, _ = run_cli(capsys, *argv, "--seed", "0", "--density", "0.3", "--jobs", "1")
        assert default == explicit

    def test_exhaustive_capped(self, capsys):
        status, _, err = run_cli(
            capsys, "verify", "--theorem", "all", "--exhaustive", "--n", "5"
        )
        assert status == 2 and "--samples" in err

    @pytest.mark.parametrize("n", [10, 64])
    def test_all_permutations_capped(self, capsys, n):
        start = time.perf_counter()
        status, out, err = run_cli(
            capsys, "verify", "--n", str(n), "--form", "binary", "--code", "11" + "0" * (n - 2)
        )
        assert time.perf_counter() - start < 1.0
        assert status == 2 and out == "" and "--gamma" in err

    def test_named_permutation_past_the_cap(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--n", "10", "--form", "binary", "--code", "1100000000",
            "--gamma", "2,1,3,4,5,6,7,8,9,10",
        )
        assert status == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [d["theorem"] for d in lines[:2]] == ["permutation", "add_trivial_on"]
        assert all(d["verdict"] == "holds" for d in lines)

    def test_sampled_with_seed(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "verify", "--theorem", "duplicate", "--n", "3", "--samples", "10",
            "--seed", "3", "--summary",
        )
        assert status == 0
        assert json.loads(out)["violated"] == 0

    def test_line_output_per_instance(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--theorem", "projection", "--exhaustive", "--n", "2"
        )
        lines = out.strip().splitlines()
        assert status == 0
        # one JSON line per instance plus the closing summary line
        assert len(lines) == 16 * 2 + 1
        assert all(json.loads(line) for line in lines)

    @pytest.mark.parametrize("theorem,n,extra", [
        ("permutation", 3, ["--gamma", "1,1,2"]),
        ("duplicate", 3, ["--source", "7"]),
        ("projection", 3, ["--delete", "9"]),
        ("add-trivial-on", 64, []),
        ("add-trivial-off", 64, []),
    ])
    def test_invalid_map_rejected_on_empty_code(self, capsys, theorem, n, extra):
        for words in ("", "1" * n):
            status, out, err = run_cli(
                capsys, "verify", "--theorem", theorem, "--n", str(n), "--form", "binary",
                "--code", words, *extra,
            )
            assert status == 2 and out == "" and "input error" in err

    def test_single_instance_all_theorems(self, capsys):
        status, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--code", "1,2", "--gamma", "2,1"
        )
        assert status == 0
        theorems = [json.loads(line)["theorem"] for line in out.strip().splitlines()]
        assert theorems == [
            "permutation", "add_trivial_on", "add_trivial_off", "duplicate",
            "projection", "projection",
        ]
