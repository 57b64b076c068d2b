"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repo root)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_cli()


@pytest.fixture(scope="module")
def launcher():
    with run.Launcher(CLI, tracing.Tracer()) as launcher:
        yield launcher


def make_pool(launcher: run.Launcher, workload: str, seed: int) -> workloads.Pool:
    return workloads.make_pool(workload, seed, lambda argv: run.cli_stdout(launcher, argv))


def cheapest(pool: workloads.Pool, kind: str) -> workloads.Op:
    return min((op for op in pool if op.kind == kind), key=lambda op: (op.n, len(op.words)))


SMALL_SUITE = workloads.Op(("verify", "--n", "4", "--samples", "2", "--seed", "1",
                            "--field", "Q"), "suite", 2 * 9, n=4, field="Q")


@pytest.fixture(scope="module")
def analyze_pool(launcher) -> workloads.Pool:
    return make_pool(launcher, "cli_analyze", run.DEFAULT_SEED)


@pytest.fixture(scope="module")
def small_ops(analyze_pool) -> list[workloads.Op]:
    return [SMALL_SUITE, cheapest(analyze_pool, "analyze"), cheapest(analyze_pool, "dual")]


# ---- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(launcher, workload):
    assert make_pool(launcher, workload, 4) == make_pool(launcher, workload, 4)


@pytest.mark.parametrize("workload", ["sampled_n8", "cli_analyze"])
def test_other_seed_other_inputs(launcher, workload):
    first, second = make_pool(launcher, workload, 4), make_pool(launcher, workload, 5)
    assert len(first) == len(second)
    assert all(a.argv != b.argv for a, b in zip(first, second))


def test_cli_analyze_mix(analyze_pool):
    ops = analyze_pool
    assert [op.kind for op in ops[:4]] == ["analyze", "dual", "analyze", "dual"]
    assert [op.field for op in ops if op.kind == "analyze"][:4] == ["GF2", "Q", "GF2", "Q"]
    sparse = [op for op in ops if 9 <= op.n <= 12 and len(op.words) <= 6]
    assert {op.n for op in sparse} == {9, 10, 11, 12}
    assert all(2 <= w.count("1") <= 4 for op in sparse for w in op.words)


# ---- correctness gate ------------------------------------------------------


def test_default_seed_ops_match_pins(launcher, analyze_pool):
    pins = run.load_pins("cli_analyze", run.DEFAULT_SEED)
    assert len(pins) == len(analyze_pool)
    for slot in (0, 1):
        res = launcher.run(analyze_pool[slot].argv)
        assert run.judge(analyze_pool[slot], res, pins[slot])[0] is None


def _corruptions(op: workloads.Op, out: bytes) -> list[bytes]:
    text = out.decode()
    if op.kind == "suite":
        lines = text.splitlines()
        violated = lines[0].replace('"verdict": "holds"', '"verdict": "violated"')
        return [
            "\n".join(lines[1:]).encode(),  # an instance line lost
            "\n".join([violated] + lines[1:]).encode(),  # disagrees with the summary
            text.replace('"violated": 0', '"violated": 1').encode(),
        ]
    d = json.loads(text)
    bad = []
    if op.kind == "analyze":
        moved = dict(d, cmin_in=d["cmin_in"][1:])  # a face in no part
        bad.append(json.dumps(moved).encode())
        bad.append(json.dumps(dict(d, mh=d["mh"] + ["1" * op.n])).encode())
        bad.append(json.dumps(dict(d, dual_complex_facets=d["dual_complex_facets"][1:])).encode())
    else:
        bad.append(json.dumps(dict(d, dual_ideal=d["dual_ideal"][1:])).encode())
        bad.append(json.dumps(dict(d, sr_ideal=d["sr_ideal"][1:])).encode())
    bad.append(out[: len(out) // 2])  # truncated
    return bad


def test_corrupted_output_fails_its_check(launcher, small_ops):
    for op in small_ops:
        res = launcher.run(op.argv)
        assert run.judge(op, res, None)[0] is None, op.argv
        for corrupt in _corruptions(op, res.out):
            res.out = corrupt
            assert run.judge(op, res, None)[0] is not None, (op.argv, corrupt[:200])


def test_corrupted_output_counts_as_failed(launcher, small_ops):
    pool = (small_ops[1],) * 3
    result = run.measure(launcher, pool, 0.0, pins=["0" * 64] * 3)
    assert result.attempted == 3 and result.failed == 3
    assert run.end_to_end(result, pool, [1.0])["ok_ratio"] == 0.0


def test_latency_is_the_median_of_scaled_repeats():
    pool = (workloads.Op(("analyze",), "analyze", 1), workloads.Op(("dual",), "dual", 1))
    result = run.Run(attempted=5, slots=[0, 1, 0, 1, 0], seconds=[1.0, 2.0, 1.0, 2.0, 1.0],
                     scale=[0.5, 1.0, 0.5, 1.0, 2.0], rss_mb=[1.0] * 5)
    assert run.input_seconds(result) == {0: 0.5, 1: 2.0}
    assert run.input_seconds(result, scaled=False) == {0: 1.0, 1: 2.0}
    metrics = run.end_to_end(result, pool, [0.1])
    assert metrics["latency_p50_ms"] == pytest.approx(1250.0)
    assert metrics["ops_per_s"] == pytest.approx(2 / 2.5)


def test_calibration_tracks_the_work_done():
    short = min(run.calibrate(2000) for _ in range(3))
    long = min(run.calibrate(8000) for _ in range(3))
    assert 2.0 < long / short < 8.0


def test_failed_exit_status_counts_as_failed(launcher):
    op = workloads.Op(("analyze", "--n", "3", "--code", "1x"), "analyze", 1, n=3, words=("1x",))
    res = launcher.run(op.argv)
    assert res.status == 2
    assert run.judge(op, res, None)[0].startswith("exit status 2")


# ---- tracing ---------------------------------------------------------------


def test_tracing_leaves_stdout_byte_identical(launcher, small_ops):
    for op in small_ops:
        traced = launcher.run(op.argv, traced=True)
        plain = launcher.run(op.argv)
        assert traced.trace is not None and plain.trace is None
        assert traced.status == plain.status == 0
        assert traced.out == plain.out


def test_uninstall_restores_every_binding():
    import obstrukt.homology
    import obstrukt.mandatory

    before = obstrukt.mandatory.reduced_homology
    tracer = tracing.Tracer()
    tracer.install()
    assert obstrukt.mandatory.reduced_homology is not before
    tracer.uninstall()
    assert obstrukt.mandatory.reduced_homology is before is obstrukt.homology.reduced_homology


def test_every_binding_is_wrapped_and_cache_counts_agree(launcher, small_ops):
    tracer = tracing.Tracer()
    bound_in = {caller for _, _, _, key, caller in tracer.bindings
                if key == "homology.reduced_homology"}
    assert {"homology", "collapse", "mandatory", "codemaps", "cli", "package"} <= bound_in
    totals = tracing.Totals(tracer.absent)
    for i, op in enumerate(small_ops):
        totals.add(i, launcher.run(op.argv, traced=True).trace)
    assert totals.coverage_gap == 0
    assert totals.cache["homology.reduced_homology"][1] > 0
    metrics = totals.metrics()
    assert [name for name, _, _ in tracing.PER_LAYER] == list(metrics)
    assert metrics["cli.self_s"] > 0 and metrics["codemaps.verify.calls"] > 0


def test_bypassing_binding_shows_as_coverage_gap(monkeypatch, small_ops):
    import obstrukt.mandatory

    original = obstrukt.mandatory.reduced_homology
    # Not an obstrukt function, so the tracer leaves this binding alone and
    # mandatory's calls reach the cache unseen.
    monkeypatch.setattr(obstrukt.mandatory, "reduced_homology",
                        lambda *args, **kwargs: original(*args, **kwargs))
    with run.Launcher(CLI, tracing.Tracer()) as bypassed:
        res = bypassed.run(small_ops[1].argv, traced=True)
    totals = tracing.Totals([])
    totals.add(0, res.trace)
    assert totals.coverage_gap > 0


def test_missing_function_is_reported_absent(monkeypatch):
    import obstrukt.complexes

    monkeypatch.delattr(obstrukt.complexes, "maximal_masks")
    tracer = tracing.Tracer()
    assert "complexes.maximal_masks" in tracer.absent
    totals = tracing.Totals(tracer.absent)
    assert totals.metrics()["complexes.maximal_masks.calls"] == 0


def test_spans_file_round_trips_and_gives_self_times(tmp_path, launcher, small_ops):
    totals = tracing.Totals([])
    summaries = []
    for i, op in enumerate(small_ops):
        summaries.append(launcher.run(op.argv, traced=True).trace)
        totals.add(i, summaries[-1])
    path = tmp_path / "spans.bin"
    totals.write_spans(path)
    header, ops = tracing.load_spans(path)
    assert [op["op"] for op in header["ops"]] == [0, 1, 2]
    for summary, spans in zip(summaries, ops):
        child = [0.0] * len(spans["start"])
        for sid, parent in enumerate(spans["parent"]):
            if parent >= 0:
                child[parent] += spans["end"][sid] - spans["start"][sid]
        self_s = [0.0] * len(summary["self_s"])
        for sid, b in enumerate(spans["binding"]):
            self_s[b] += spans["end"][sid] - spans["start"][sid] - child[sid]
        assert self_s == pytest.approx(summary["self_s"], abs=1e-9)
        assert spans["parent"][0] == -1
        assert header["bindings"][spans["binding"][0]]["function"] == "cli.main"


# ---- the benchmark's contract ----------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
