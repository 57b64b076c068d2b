import collections
import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from obstrukt import (
    Field,
    NeuralCode,
    SimplicialComplex,
    code_complex,
    exhaustive_codes,
    random_code,
    run_exhaustive,
    run_sampled,
    run_suite,
    suites,
    verify_duplicate,
    verify_projection,
)
from obstrukt.cli import main
from obstrukt.codemaps import CheckResult, Outcome, VerificationReport
from obstrukt.codes import binaries
from obstrukt.errors import BadDensity, NeuronOutOfRange, NotAPermutation
from obstrukt.suites import code_reports, sampled_codes, symmetric_group

from conftest import report_dict


class TestRandomCodes:
    def test_deterministic(self):
        assert random_code(3, 7) == random_code(3, 7)
        assert random_code(4, 1, 0.5) == random_code(4, 1, 0.5)

    def test_density_one_takes_everything(self):
        c = random_code(2, 123, density=1)
        assert len(c.words) == 3

    def test_never_includes_empty_word(self):
        for seed in range(30):
            c = random_code(3, seed, 0.9)
            assert all(len(cw) > 0 for cw in c.words)

    def test_bad_density(self):
        with pytest.raises(BadDensity):
            random_code(3, 1, 0.0)
        with pytest.raises(BadDensity):
            random_code(3, 1, 1.5)

    def test_different_seeds_differ_somewhere(self):
        results = {random_code(4, s, 0.3) for s in range(20)}
        assert len(results) > 1

    def test_random_complex_is_closed(self):
        for seed in range(20):
            K = code_complex(random_code(4, seed, 0.3))
            if not K.is_void:
                assert 0 in K.face_bits


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in exhaustive_codes(2)) == 16
        assert sum(1 for _ in exhaustive_codes(3)) == 256

    def test_empty_word_toggled_both_ways(self):
        codes = list(exhaustive_codes(2))
        with_empty = [c for c in codes if 0 in c.masks]
        without = [c for c in codes if 0 not in c.masks]
        assert len(with_empty) == len(without) == 8

    def test_width_guard(self):
        for enumerate_ in (exhaustive_codes, run_exhaustive):
            with pytest.raises(NeuronOutOfRange):
                enumerate_(5)
            with pytest.raises(NeuronOutOfRange):
                enumerate_(0)

    def test_symmetric_group_shared_and_capped(self):
        assert symmetric_group(3) is symmetric_group(3)
        assert len(symmetric_group(4)) == 24 and len(set(symmetric_group(4))) == 24
        with pytest.raises(NeuronOutOfRange, match="--gamma"):
            symmetric_group(9)

    def test_sampled_codes_reproducible(self):
        a = list(sampled_codes(4, 5, seed=9))
        b = list(sampled_codes(4, 5, seed=9))
        assert a == b and len(a) == 5

    def test_sampled_codes_are_drawn_as_read(self, monkeypatch):
        drawn = []

        def counting(*args):
            drawn.append(args)
            return random_code(*args)

        monkeypatch.setattr(suites, "random_code", counting)
        codes = iter(sampled_codes(8, 1000, 5))
        assert drawn == []
        assert next(codes) == random_code(8, 5)
        assert drawn == [(8, 5, 0.3)]


class TestBitsetKeys:
    """An exhaustive suite keys each code from its bitset over the nonempty
    words, as ``_keyed`` keys the codes of ``exhaustive_codes``."""

    @pytest.mark.parametrize("n,theorems", [
        *((n, suites.ALL_THEOREMS) for n in (1, 2, 3, 4)),
        *((n, ("add_trivial_off", "projection")) for n in (1, 2, 3)),
    ])
    def test_stream_matches_keyed_codes(self, n, theorems):
        expected = suites._keyed(exhaustive_codes(n), Field.GF2, theorems)
        streamed = suites._exhaustive_keyed(n, Field.GF2, theorems)
        assert [(words(), key) for words, key in streamed] == \
            [(words(), key) for words, key in expected]

    def test_empty_code_and_the_code_of_the_empty_word(self):
        pairs = [(words(), key[1]) for words, key in suites._exhaustive_keyed(2, Field.GF2, ())]
        assert pairs[:4] == [([], ()), (["00"], (0,)), (["10"], (1,)), (["00", "10"], (1,))]
        assert pairs[-1] == (["00", "01", "10", "11"], (3,))

    def test_no_complex_built_per_code(self, monkeypatch, capsys):
        # 20 complexes with cold memos take 85 maximal_masks calls; keying
        # each of the 256 codes through its own complex took 341
        from obstrukt import collapse, complexes, mandatory_partition, reduced_homology

        calls = []
        real = complexes.maximal_masks
        monkeypatch.setattr(complexes, "maximal_masks", lambda masks: calls.append(1) or real(masks))
        for memo in (mandatory_partition, reduced_homology, collapse._packed_profile):
            memo.cache_clear()
        assert main(["verify", "--theorem", "all", "--exhaustive", "--n", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3072 + 1
        assert 0 < len(calls) <= 100

    @pytest.mark.parametrize("summary,lists", [(False, 256), (True, 0)])
    def test_word_lists_only_for_written_codes(self, monkeypatch, capsys, summary, lists):
        built = []
        for name in ("_words", "binaries"):
            def counting(*args, _real=getattr(suites, name)):
                built.append(args)
                return _real(*args)

            monkeypatch.setattr(suites, name, counting)
        argv = ["verify", "--theorem", "all", "--exhaustive", "--n", "3"]
        assert main(argv + ["--summary"] * summary) == 0
        capsys.readouterr()
        assert len(built) == lists


class TestRunner:
    def test_exhaustive_n2_all_hold(self):
        result = run_exhaustive(2)
        assert result.ok
        assert result.instances == 112  # 16 codes x (2 perms + on + off + dup + 2 projections)
        assert result.holds == result.instances

    def test_single_code_reports_order_is_stable(self):
        c = NeuralCode(3, [0b111, 0b011])
        names = [r.theorem for r in code_reports(c)]
        assert names == ["permutation"] * 6 + [
            "add_trivial_on",
            "add_trivial_off",
            "duplicate",
            "projection",
            "projection",
            "projection",
        ]

    def test_named_maps_and_theorem_order(self):
        c = NeuralCode(3, [0b111, 0b011])
        reports = code_reports(c, theorems=("projection", "duplicate", "permutation"),
                               gammas=((2, 1, 3),), source=3, delete=2)
        assert [r.map_desc for r in reports] == ["permute(2,1,3)", "duplicate(3)", "project(2)"]

    @pytest.mark.parametrize("name", ["source", "delete"])
    def test_named_neurons_checked_whatever_the_theorems(self, name):
        c = NeuralCode(3, [0b011])
        with pytest.raises(NeuronOutOfRange, match=f"--{name} 9"):
            code_reports(c, theorems=("permutation",), **{name: 9})

    def test_gammas_checked_whatever_the_theorems(self, monkeypatch):
        c = NeuralCode(3, [0b011])
        monkeypatch.setattr(suites, "_verify", None)  # no instance may run
        with pytest.raises(NotAPermutation):
            code_reports(c, theorems=("duplicate",), gammas=((1, 2, 3), (9, 9, 9)))

    def test_domain_complex_built_once_and_no_face_listed(self, monkeypatch):
        """Every instance of a code reads the one complex that
        ``code_reports`` builds, and the duplicate and projection rows
        decide their link laws without listing the faces of any complex."""
        built, listed = collections.Counter(), []
        real = suites.code_complex
        monkeypatch.setattr(suites, "code_complex",
                            lambda c: built.update(["code_complex"]) or real(c))
        face_bits = SimplicialComplex.face_bits
        monkeypatch.setattr(SimplicialComplex, "face_bits",
                            property(lambda K: listed.append(K) or face_bits.fget(K)))
        c = NeuralCode(4, [0b0111, 0b1100, 0b1001])
        reports = code_reports(c, theorems=("duplicate", "projection"))
        assert built == {"code_complex": 1} and len(reports) == 5 and listed == []
        monkeypatch.undo()
        assert reports == [verify_duplicate(c), *(verify_projection(c, d) for d in range(1, 5))]

    def test_sampled_deterministic_and_parallel_equal(self):
        serial_lines, parallel_lines = [], []
        serial = run_sampled(4, 12, seed=5, jobs=1, write=serial_lines.append)
        parallel = run_sampled(4, 12, seed=5, jobs=2, write=parallel_lines.append)
        assert serial_lines == parallel_lines
        assert serial.ok and parallel.ok

    def test_rational_field_suite(self):
        result = run_sampled(3, 20, seed=8, fld=Field.RATIONAL)
        assert result.ok

    def test_theorem_filter(self):
        result = run_sampled(3, 5, seed=4, theorems=("projection",))
        assert result.instances == 5 * 3

    def test_no_permutations_built_without_the_permutation_theorem(self):
        wide = NeuralCode(10, [0b11, 0b1000000000])
        result = run_suite([wide], theorems=("projection",))
        assert result.instances == 10 and result.ok
        with pytest.raises(NeuronOutOfRange, match="--gamma"):
            run_suite([wide])

    def test_violation_accounting(self, monkeypatch):
        def fake(task, lines):
            _, facets, *_ = task
            if facets == (0b01,):
                return [("violated", ('{"verdict": "violated", "theorem": "x", "code": ', "}"))]
            return [("holds", None), ("partial", None)]

        monkeypatch.setattr(suites, "_run_one", fake)
        codes = [NeuralCode(2, [0b01]), NeuralCode(2, [0b11])]
        result = run_suite(codes)
        assert (result.instances, result.holds, result.partial, result.violated) == (3, 1, 1, 1)
        assert not result.ok
        assert result.violations == [{"verdict": "violated", "theorem": "x", "code": ["10"]}]


class InProcessPool:
    """Stands in for ``multiprocessing.Pool`` without starting a process."""

    def __init__(self, jobs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks, chunksize):
        return map(fn, tasks)


def per_code_blocks(n: int, fld: Field) -> list[str]:
    """The ungrouped suite: every check run on every code, in instance
    order, each code's lines encoded from the reference dict and joined into
    the one block that is written for it."""
    blocks = ("".join(json.dumps(report_dict(r)) + "\n" for r in code_reports(code, fld))
              for code in exhaustive_codes(n))
    return [block for block in blocks if block]


def lines_of(blocks: list[str]) -> list[str]:
    """The lines of written blocks, each block a whole number of lines."""
    assert all(block.endswith("\n") for block in blocks)
    return "".join(blocks).splitlines()


class TestGrouping:
    """Verifying each distinct complex once gives the bytes of the per-code loop."""

    @pytest.mark.parametrize("fld", [Field.GF2, Field.RATIONAL])
    def test_grouped_lines_match_per_code_n3(self, fld):
        blocks = []
        run_exhaustive(3, fld, write=blocks.append)
        assert blocks == per_code_blocks(3, fld) and len(blocks) == 256

    def test_grouped_pool_matches_per_code_n2(self):
        blocks = []
        run_exhaustive(2, Field.GF2, jobs=2, write=blocks.append)
        assert blocks == per_code_blocks(2, Field.GF2)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_report_cache_cap_changes_nothing(self, monkeypatch, sampled):
        # a cap of one key drops the kept reports at nearly every code: the
        # lines and the tally stay, and the exhaustive suite verifies its 20
        # complexes again
        def run(write):
            return run_sampled(5, 30, seed=4, write=write) if sampled else run_exhaustive(3, write=write)

        lines, capped, calls = [], [], []
        result = run(lines.append)
        real = suites._run_one
        monkeypatch.setattr(suites, "_run_one",
                            lambda key, lines: calls.append(key) or real(key, lines))
        monkeypatch.setattr(suites, "_MAX_KEYS", 1)
        assert run(capped.append) == result
        assert capped == lines
        if not sampled:
            assert len(calls) > len(set(calls)) == 20

    @pytest.mark.parametrize("fld", [Field.GF2, Field.RATIONAL])
    @pytest.mark.parametrize("max_keys", [suites._MAX_KEYS, 1])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_totals_are_the_sums_of_the_code_reports(self, monkeypatch, fld, max_keys, pooled):
        # the pool has partial instances; read twice, its keys recur, so a
        # kept key is counted again and a cleared one verified again
        theorems = tuple(t for t in suites.ALL_THEOREMS if t != "permutation")
        codes = [*sampled_codes(6, 3, 167)] * 2
        verdicts = collections.Counter(r.verdict.value for c in codes
                                       for r in code_reports(c, fld, theorems))
        assert verdicts["partial"] > 0
        monkeypatch.setattr(suites, "_MAX_KEYS", max_keys)
        if pooled:
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
            monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        result = run_suite(codes, fld, theorems, jobs=2 if pooled else 1)
        assert (result.instances, result.holds, result.partial, result.violated) == (
            sum(verdicts.values()), verdicts["holds"], verdicts["partial"], verdicts["violated"])

    @pytest.mark.parametrize("n,complexes", [(2, 6), (3, 20)])
    def test_one_verification_per_complex(self, monkeypatch, n, complexes):
        # Dedekind numbers D(2) = 6 and D(3) = 20 count the complexes, void included
        calls = []
        real = suites._run_one

        def counting(task, lines):
            calls.append(task)
            return real(task, lines)

        monkeypatch.setattr(suites, "_run_one", counting)
        result = run_exhaustive(n)
        assert len(calls) == len(set(calls)) == complexes
        assert result.instances == sum(len(code_reports(c)) for c in exhaustive_codes(n))

    def test_pool_maps_distinct_keys_only(self, monkeypatch):
        mapped = []

        class RecordingPool(InProcessPool):
            def imap(self, fn, tasks, chunksize):
                tasks = list(tasks)
                mapped.extend(tasks)
                return map(fn, tasks)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        blocks = []
        run_exhaustive(3, jobs=2, write=blocks.append)
        assert len(mapped) == len(set(mapped)) == 20
        assert blocks == per_code_blocks(3, Field.GF2)

    def test_pool_lines_stream_window_by_window(self, monkeypatch):
        # the first window's lines are written before the last distinct key is mapped
        written, mapped_after = [], []

        class RecordingPool(InProcessPool):
            def imap(self, fn, tasks, chunksize):
                for task in tasks:
                    mapped_after.append(len(written))
                    yield fn(task)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        run_exhaustive(3, jobs=2, write=written.append)
        assert len(mapped_after) == 20
        assert mapped_after[0] == 0 and mapped_after[-1] > 0

    def test_real_pool_across_windows_matches_serial(self, monkeypatch):
        # two workers read 128 codes a window, so 300 codes take three windows
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial_lines, pooled_lines = [], []
        serial = run_sampled(3, 300, seed=11, jobs=1, write=serial_lines.append)
        pooled = run_sampled(3, 300, seed=11, jobs=2, write=pooled_lines.append)
        assert 2 * (suites._WINDOW * 2) < 300
        assert pooled_lines == serial_lines
        assert pooled.to_json_dict() == serial.to_json_dict()

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        asked = []

        class CountingPool(InProcessPool):
            def __init__(self, jobs):
                asked.append(jobs)

        monkeypatch.setattr(multiprocessing, "Pool", CountingPool)
        cpus = os.cpu_count() or 1
        expected = run_sampled(3, 5, seed=2)
        assert run_sampled(3, 5, seed=2, jobs=10_000).to_json_dict() == expected.to_json_dict()
        assert asked == ([cpus] if cpus > 1 else [])
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        run_sampled(3, 5, seed=2, jobs=10_000)
        assert asked[-1] == 3

    def test_serial_lines_stream_as_codes_are_met(self, monkeypatch):
        # the first code's lines are written before the second complex is verified
        written, verified_after = [], []
        real = suites._run_one

        def recording(task, lines):
            verified_after.append(len(written))
            return real(task, lines)

        monkeypatch.setattr(suites, "_run_one", recording)
        run_exhaustive(2, write=written.append)
        assert verified_after[0] == 0 and verified_after[1] > 0

    def test_empty_code_and_empty_word_stay_apart(self):
        written = []
        run_exhaustive(2, write=written.append)
        lines = [json.loads(line) for line in lines_of(written)]
        empty_code = [d for d in lines if d["code"] == []]
        empty_word = [d for d in lines if d["code"] == ["00"]]
        assert len(empty_code) == len(empty_word) == 7
        for d in empty_code:
            assert d["observations"] == {"empty_code": True} and d["checks"] == []
        for d in empty_word:
            assert "empty_code" not in d["observations"] and d["checks"]


def _encoded(report: VerificationReport) -> str:
    """The report's line as a suite splices it: head, the code, tail."""
    head, tail = report.line_halves()
    line = head + json.dumps(binaries(report.code.masks, report.code.n)) + tail
    assert line == report.to_json_line()
    return line


class TestLineEncoding:
    """A report's line, spliced from its head, its code and its tail, is
    ``json.dumps`` of the reference dict (``report_dict``)."""

    RELATIONS = (("=", ""), ("⊆", ""), ("⊊", "image must equal the target minus the empty word"),
                 ("∀", "faces listed on the left violate the relation"))

    @pytest.mark.parametrize("outcomes", [
        (), (Outcome.HOLDS,), (Outcome.HOLDS, Outcome.PARTIAL),
        (Outcome.PARTIAL, Outcome.VIOLATED, Outcome.HOLDS), (Outcome.VIOLATED, Outcome.PARTIAL),
        (Outcome.HOLDS, Outcome.HOLDS, Outcome.PARTIAL, Outcome.VIOLATED),
    ])
    @pytest.mark.parametrize("observations", [
        (), (("mh_reverse_containment_holds", True),), (("mh_reverse_containment_holds", False),),
        (("empty_code", True),),
    ])
    @pytest.mark.parametrize("masks", [[], [0], [0b001, 0b110, 0b111]])
    def test_hand_built_reports(self, outcomes, observations, masks):
        checks = [CheckResult(f"check_{i}", relation, ("010",) * i, ("010", "110")[:i], outcome,
                              note) for i, (outcome, (relation, note))
                  in enumerate(zip(outcomes, self.RELATIONS * 2))]
        report = VerificationReport("projection", NeuralCode(3, masks), "project(2)", Field.GF2,
                                    tuple(checks), observations)
        line = _encoded(report)
        assert line == json.dumps(report_dict(report))
        assert json.loads(line)["code"] == {0: [], 1: ["000"], 3: ["011", "100", "111"]}[len(masks)]
        assert line.isascii()
        for relation, _ in self.RELATIONS[:len(outcomes)]:
            assert json.dumps(relation) in line

    @pytest.mark.parametrize("n", range(1, 65))
    def test_every_width(self, n):
        rng = random.Random(n)
        masks = {0, (1 << n) - 1, *(rng.randrange(1 << n) for _ in range(5))}
        faces = tuple(binaries(list(masks)[:3], n))
        checks = (CheckResult("mh_image_equal", "=", faces, faces, Outcome.HOLDS),
                  CheckResult("link_two_case_formula", "∀", faces[:1], (), Outcome.VIOLATED,
                              "faces listed on the left violate the relation"))
        fld = (Field.GF2, Field.RATIONAL)[n % 2]
        report = VerificationReport("duplicate", NeuralCode(n, masks), "duplicate(1)", fld, checks)
        assert _encoded(report) == json.dumps(report_dict(report))

    @pytest.mark.parametrize("fld", [Field.GF2, Field.RATIONAL])
    def test_engine_reports(self, fld):
        codes = [*exhaustive_codes(2), *sampled_codes(5, 6, 3), NeuralCode(9, [0b110000011, 0b1])]
        reports = [r for c in codes for r in code_reports(c, fld, gammas=[tuple(range(c.n, 0, -1))])]
        assert len(reports) > 100
        for r in reports:
            assert _encoded(r) == json.dumps(report_dict(r))


class TestSplice:
    """A code's lines are spliced from its key's encoded text and its words."""

    def test_json_encoding_calls(self, monkeypatch, capsys):
        # written lines encode the reports of the 20 complexes once each,
        # each of the 256 codes' words once and the summary line; a summary
        # encodes its own line alone
        real, count = json.dumps, []

        def counting(*args, **kwargs):
            count.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        keys = {key for _, key in suites._exhaustive_keyed(3, Field.GF2, suites.ALL_THEOREMS)}
        for key in keys:
            suites._run_one(key)
        per_keys = len(count)
        assert len(keys) == 20 and per_keys > 0
        argv = ["verify", "--theorem", "all", "--exhaustive", "--n", "3"]
        for summary, calls in ((False, per_keys + 256 + 1), (True, 1)):
            count.clear()
            assert main(argv + ["--summary"] * summary) == 0
            capsys.readouterr()
            assert len(count) == calls

    def test_a_summary_renders_violated_reports_alone(self, monkeypatch):
        # each complex's first report is made violated; a summary renders
        # the six lines and no other, and decodes them as the 16 written
        # lines read
        real_reports, real_halves, rendered = suites.code_reports, VerificationReport.line_halves, []

        def first_violated(*args, **kwargs):
            first, *rest = real_reports(*args, **kwargs)
            wrong = CheckResult("mh_image_equal", "=", ("01",), (), Outcome.VIOLATED)
            violated = VerificationReport(first.theorem, first.code, first.map_desc, first.field,
                                          (wrong,), first.observations)
            return [violated, *rest]

        monkeypatch.setattr(suites, "code_reports", first_violated)
        monkeypatch.setattr(VerificationReport, "line_halves",
                            lambda self: rendered.append(self.verdict) or real_halves(self))
        summary = run_exhaustive(2)
        assert rendered == [Outcome.VIOLATED] * 6
        written = []
        lines = run_exhaustive(2, write=written.append)
        assert summary.to_json_dict() == lines.to_json_dict()
        violated = [json.loads(line) for line in lines_of(written) if '"verdict": "violated"' in line]
        assert summary.violations == violated and len(violated) == 16


class TestMaskRepresentation:
    def test_sampled_verify_builds_few_codewords_and_complexes(self, monkeypatch, capsys):
        # From the drawn code to the JSON line every word and face stays an
        # int mask: three n = 8 sampled ops with cold memos build no Codeword
        # and 77 complexes in all.  Storing a code's words as Codewords built
        # 262, and holding faces as Codewords and ranking links as complexes
        # built 12,622 Codewords and 2,450 complexes.
        from obstrukt import Codeword, SimplicialComplex, mandatory_partition, reduced_homology

        built = collections.Counter()
        for cls in (Codeword, SimplicialComplex):
            def counting(self, *args, _real=cls.__init__, _name=cls.__name__):
                built[_name] += 1
                _real(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        mandatory_partition.cache_clear()
        reduced_homology.cache_clear()
        for seed in (11, 12, 13):
            argv = ["verify", "--n", "8", "--samples", "1", "--seed", str(seed), "--field", "GF2"]
            assert main(argv) == 0
            assert len(capsys.readouterr().out.splitlines()) == 14
        assert built["Codeword"] == 0
        assert built["SimplicialComplex"] <= 1_200

    def test_sampled_verify_decides_each_link_once(self, monkeypatch, capsys):
        # Three n = 8 sampled ops with cold memos scan for a dominated vertex
        # 238 times, rank 32 cores and call maximal_masks 30 times.  Deciding
        # each link's whole collapse once per relabelled copy took 679 scans
        # and 37 ranks, and taking the maximal masks of every projected link
        # whose images differ from the target link took 1,659 calls.
        from obstrukt import collapse, complexes, mandatory_partition, reduced_homology

        calls = collections.Counter()
        for module, name in ((collapse, "_highest_domination"), (complexes, "maximal_masks")):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        for memo in (mandatory_partition, reduced_homology, collapse._packed_profile):
            memo.cache_clear()
        for seed in (11, 12, 13):
            argv = ["verify", "--n", "8", "--samples", "1", "--seed", str(seed), "--field", "GF2"]
            assert main(argv) == 0
            assert len(capsys.readouterr().out.splitlines()) == 14
        assert calls["_highest_domination"] <= 320
        assert reduced_homology.cache_info().misses <= 35
        assert calls["maximal_masks"] <= 100

    def test_sampled_verify_ranks_dense_cores_on_their_duals(self, monkeypatch, capsys):
        # The same three ops hand 213 faces to reduced_homology, because a
        # core holding more than half of the subsets of its vertices is
        # ranked on its Alexander dual.  Ranking every core as it is handed
        # over 1,256 faces.
        from obstrukt import collapse, mandatory_partition, reduced_homology

        faces = []

        def counting(K, fld, _real=collapse.reduced_homology):
            faces.append(len(K.face_bits))
            return _real(K, fld)

        monkeypatch.setattr(collapse, "reduced_homology", counting)
        for memo in (mandatory_partition, reduced_homology, collapse._packed_profile):
            memo.cache_clear()
        for seed in (11, 12, 13):
            argv = ["verify", "--n", "8", "--samples", "1", "--seed", str(seed), "--field", "GF2"]
            assert main(argv) == 0
            assert len(capsys.readouterr().out.splitlines()) == 14
        assert faces and sum(faces) <= 500


# Four sampled n = 8 chunks of 150 codes with their lines written, in a fresh
# interpreter; ru_maxrss (KiB on Linux) after each chunk goes to stdout.
_CHUNKS = """
import os, resource
from obstrukt.suites import run_sampled
with open(os.devnull, "w") as sink:
    for k in range(4):
        run_sampled(8, 150, seed=1 + 150 * k, write=sink.write)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB")
def test_memory_stays_flat_over_a_long_sampled_suite():
    # Bounded memos and a bounded report cache: the peak grows about 1 MB
    # from the first chunk to the fourth.  Unbounded, it grew from 42 MB to
    # 91 MB, as each chunk added about 900 partitions, 1,000 homology
    # profiles and 150 keys' encoded reports.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    ran = subprocess.run([sys.executable, "-c", _CHUNKS], env=env, capture_output=True,
                         text=True, timeout=300)
    assert ran.returncode == 0, ran.stderr
    peaks = [int(line) for line in ran.stdout.split()]
    assert len(peaks) == 4
    assert peaks[3] - peaks[0] < 10 * 1024, peaks
