#!/usr/bin/env python3
"""obstrukt benchmark: three seeded CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload cli_analyze --seed 3 --seconds 36 --trace 0

Each op is one ``obstrukt.cli.main`` invocation in a child of a launcher
process that has imported ``obstrukt`` from ``src/`` and run nothing, so no
memo carries work from one op to the next.  One client runs one op at a time
(a closed loop).  Every op's stdout is checked; with the default seed it must
also match the SHA-256 pinned in ``pins.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every input
twice, traced and untraced, and prints the per-layer metrics (see
``tracing.py``) and the tracing overhead.

Times in the end-to-end metrics are scaled to a reference host speed: the
benchmark pins itself to one CPU and runs a fixed pure-Python calibration
loop between ops, and each op's time is multiplied by ``CAL_REF_S`` over the
mean of the loop times just before and just after it.  The unscaled figures
are printed above the result line.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import marshal
import os
import socket
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
SPAN_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 0
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
CAL_ROUNDS = 12_000  # iterations of the calibration loop
CAL_REF_S = 0.020  # reported times are as on a host where the loop takes this long
UNEXPECTED_EXCEPTION = 70  # exit status of an op whose main raised

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("certified_ratio", "ratio"),
    ("ok_ratio", "ratio"),
)


def import_cli():
    """Import ``obstrukt.cli`` from this checkout's ``src``, or exit nonzero."""
    if not (SRC / "obstrukt" / "cli.py").is_file():
        raise SystemExit(f"bench: no obstrukt sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import obstrukt.cli

    if not Path(obstrukt.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: obstrukt was imported from {obstrukt.cli.__file__}, not {SRC}")
    return obstrukt.cli


# ---- host speed --------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Run this process and everything it starts on one CPU, so that the
    calibration loop and the ops run on the same core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate(rounds: int = CAL_ROUNDS) -> float:
    """Seconds taken by a fixed pure-Python loop of the kind obstrukt runs
    (bit masks, frozensets, dicts, JSON).  It calls nothing in obstrukt, so
    a change to the program cannot move it; a change in host speed does."""
    start = time.perf_counter()
    counts: dict[frozenset, int] = {}
    acc = 0
    for i in range(rounds):
        m = (i * 2654435761) & 0xFFF
        key = frozenset((m >> k) & 7 for k in range(0, 12, 3))
        counts[key] = counts.get(key, 0) + (m & -m)
        acc ^= m
    json.dumps([sorted(k) for k in counts] + [acc])
    return time.perf_counter() - start


class HostClock:
    """Scales times measured between two calibrations to the reference speed."""

    def __init__(self) -> None:
        calibrate()  # warm up
        self.last = calibrate()
        self.samples = [self.last]

    def scale(self) -> float:
        """Calibrate again; return the factor for whatever ran since the last call."""
        now = calibrate()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        self.samples.append(now)
        return factor


# ---- one op ----------------------------------------------------------------


@dataclass
class OpResult:
    status: int
    out: bytes
    err: bytes
    seconds: float
    rss_mb: float
    trace: dict | None = None


def _read_all(fd: int) -> bytes:
    with open(fd, "rb") as fh:
        return fh.read()


def _child(cli, argv, out_w: int, err_w: int, trace_w: int | None, tracer) -> None:
    status = UNEXPECTED_EXCEPTION
    try:
        sys.stdout = io.TextIOWrapper(io.FileIO(out_w, "w"), encoding="utf-8")
        sys.stderr = io.StringIO()
        if tracer is not None:
            tracer.reset()
        try:
            rc = cli.main(list(argv))
            status = rc if isinstance(rc, int) else 0
        except SystemExit as exc:  # argparse rejects its input this way
            status = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
            status = UNEXPECTED_EXCEPTION
        sys.stdout.close()
        with open(err_w, "wb") as fh:
            fh.write(sys.stderr.getvalue().encode("utf-8")[-4096:])
        if tracer is not None:
            with open(trace_w, "wb") as fh:
                fh.write(marshal.dumps(tracer.summary()))
    finally:
        os._exit(status)


def _serve(cli, sock: socket.socket, tracer) -> None:
    """The launcher's loop: fork one child per request, report its rusage."""
    status = 0
    try:
        while True:
            msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 3)
            if not msg:
                break
            argv, traced = marshal.loads(msg)
            if traced:
                tracer.install()
            start = time.perf_counter()
            pid = os.fork()
            if pid == 0:
                sock.close()
                _child(cli, argv, fds[0], fds[1], fds[2] if traced else None,
                       tracer if traced else None)
            if traced:
                tracer.uninstall()
            for fd in fds:
                os.close(fd)
            _, wait_status, usage = os.wait4(pid, 0)
            seconds = time.perf_counter() - start
            sock.send(marshal.dumps((os.waitstatus_to_exitcode(wait_status), seconds,
                                     usage.ru_maxrss)))
    except BaseException:
        traceback.print_exc()
        status = 1
    finally:
        os._exit(status)


class Launcher:
    """Runs ops, each in a child forked from a process that has imported
    obstrukt and done nothing else.

    The launcher never runs the program and never holds the benchmark's
    data, so every op starts from the same state and an op's peak RSS is
    that of a CLI process, not of the benchmark.  With a ``tracer``, ops
    asked for ``traced`` run with its wrappers installed.
    """

    def __init__(self, cli, tracer=None) -> None:
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            self.sock.close()
            _serve(cli, theirs, tracer)
        theirs.close()
        self.tracer = tracer

    def run(self, argv, traced: bool = False) -> OpResult:
        """Run ``obstrukt.cli.main(argv)`` in a new child; collect its output."""
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        trace_r, trace_w = os.pipe() if traced else (None, None)
        theirs = [fd for fd in (out_w, err_w, trace_w) if fd is not None]
        try:
            socket.send_fds(self.sock, [marshal.dumps((list(argv), traced))], theirs)
        finally:
            for fd in theirs:
                os.close(fd)
        out = _read_all(out_r)
        err = _read_all(err_r)
        blob = _read_all(trace_r) if trace_r is not None else b""
        reply = self.sock.recv(4096)
        if not reply:
            raise RuntimeError("the op launcher exited")
        status, seconds, rss_kb = marshal.loads(reply)
        return OpResult(status, out, err, seconds, rss_kb / 1024,
                        marshal.loads(blob) if blob else None)

    def close(self) -> None:
        self.sock.close()
        os.waitpid(self.pid, 0)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def cli_stdout(launcher: Launcher, argv) -> bytes:
    """Stdout of a successful op; used to generate inputs."""
    res = launcher.run(argv)
    if res.status != 0:
        raise RuntimeError(f"obstrukt {' '.join(argv)} exited {res.status}: {res.err.decode()}")
    return res.out


# ---- a run -----------------------------------------------------------------


def setup(workload: str, seed: int, trace: bool = False):
    """Import obstrukt, start the launcher and build the op pool.

    Returns (launcher, pool, seconds taken).  With ``trace``, the launcher
    can run traced ops.
    """
    start = time.perf_counter()
    cli = import_cli()
    launcher = Launcher(cli, tracing.Tracer() if trace else None)
    try:
        pool = workloads.make_pool(workload, seed, lambda argv: cli_stdout(launcher, argv))
    except BaseException:
        launcher.close()
        raise
    return launcher, pool, time.perf_counter() - start


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Set up once more in a fresh interpreter and return its set-up time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    slots: list[int] = field(default_factory=list)  # pool slot of each untraced op
    seconds: list[float] = field(default_factory=list)  # as measured
    scale: list[float] = field(default_factory=list)  # host-speed factor of each op
    calibrations: list[float] = field(default_factory=list)  # seconds of each loop
    rss_mb: list[float] = field(default_factory=list)
    uncertified: int = 0  # over the first pass through the pool
    certifiable: int = 0
    problems: list[str] = field(default_factory=list)


def judge(op: workloads.Op, res: OpResult, pin: str | None) -> tuple[str | None, workloads.Verdicts]:
    """Why the op failed, or None; and what its output certified."""
    if res.status != 0:
        return f"exit status {res.status}: {res.err.decode(errors='replace').strip()}", \
            workloads.Verdicts()
    try:
        verdicts = workloads.check(op, res.out)
    except workloads.CheckFailed as exc:
        return str(exc), workloads.Verdicts()
    if pin is not None and hashlib.sha256(res.out).hexdigest() != pin:
        return "stdout differs from the pinned SHA-256", verdicts
    return None, verdicts


def measure(launcher: Launcher, pool: workloads.Pool, seconds: float,
            pins: list[str] | None, totals=None) -> Run:
    """Run ops from the pool in turn until ``seconds`` have passed and the
    whole pool has run at least once.  With ``totals``, every input also
    runs traced first, and the traces are added to ``totals``.  Every
    untraced op is bracketed by calibrations (``HostClock``)."""
    run = Run()
    clock = HostClock()
    run.calibrations = clock.samples
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(pool) or time.perf_counter() < deadline:
        slot = i % len(pool)
        op = pool[slot]
        pin = pins[slot] if pins is not None else None
        results = []
        if totals is not None:
            traced = launcher.run(op.argv, traced=True)
            results.append(traced)
            clock.scale()  # leave the traced op out of the untraced op's factor
        res = launcher.run(op.argv)
        run.scale.append(clock.scale())
        results.append(res)
        for r in results:
            run.attempted += 1
            problem, verdicts = judge(op, r, pin)
            if problem is None and r is not res and r.out != res.out:
                problem = "stdout differs between the traced and the untraced run"
            if problem is not None:
                run.failed += 1
                run.problems.append(f"op {i} ({' '.join(op.argv)[:120]}): {problem}")
        if totals is not None:
            if traced.trace is not None:
                totals.add(i, traced.trace)
            totals.traced_s += traced.seconds
            totals.untraced_s += res.seconds
        run.slots.append(slot)
        run.seconds.append(res.seconds)
        run.rss_mb.append(res.rss_mb)
        if i < len(pool):  # verdicts are those of res, the last one judged
            run.uncertified += verdicts.uncertified
            run.certifiable += verdicts.total
        i += 1
    return run


def input_seconds(run: Run, scaled: bool = True) -> dict[int, float]:
    """Each input's latency: the median over its repeats in the run, each
    repeat scaled to the reference host speed unless ``scaled`` is false."""
    repeats: dict[int, list[float]] = {}
    for slot, s, f in zip(run.slots, run.seconds, run.scale):
        repeats.setdefault(slot, []).append(s * f if scaled else s)
    return {slot: statistics.median(v) for slot, v in sorted(repeats.items())}


def end_to_end(run: Run, pool: workloads.Pool, setup_samples: list[float],
               scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics.  Throughput and percentiles weigh every input
    of the pool once, so a partly run last pass does not tilt them."""
    best = input_seconds(run, scaled)
    lat_ms = [s * 1000 for s in best.values()]
    uncertified = run.uncertified / run.certifiable if run.certifiable else 0.0
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": sum(pool[slot].work for slot in best) / sum(best.values()),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": max(run.rss_mb),
        "certified_ratio": 1.0 - uncertified,
        "ok_ratio": 1.0 - run.failed / run.attempted,
    }


def load_pins(workload: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(PINS.read_text(encoding="utf-8"))[workload]


def write_pins(launcher: Launcher, workload: str, pool: workloads.Pool) -> None:
    """Record the SHA-256 of every op of the default seed's pool."""
    digests = []
    for op in pool:
        res = launcher.run(op.argv)
        problem, _ = judge(op, res, None)
        if problem is not None:
            raise SystemExit(f"bench: cannot pin {' '.join(op.argv)[:120]}: {problem}")
        digests.append(hashlib.sha256(res.out).hexdigest())
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    pins[workload] = digests
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(digests)} ops of {workload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pins.json for this workload from the default seed")
    args = parser.parse_args(argv)
    os.environ.pop("OBSTRUKT_FIELD", None)  # the program sees only the argv

    if args.setup_probe:
        launcher, pool, setup_s = setup(args.workload, args.seed)
        launcher.close()
        print(setup_s)
        return 0

    cpu = pin_to_one_cpu()
    clock = HostClock()
    launcher, pool, setup_s = setup(args.workload, args.seed, trace=bool(args.trace))
    setup_raw = [setup_s]
    setup_samples = [setup_s * clock.scale()]
    with launcher:
        if args.pin:
            if args.seed != DEFAULT_SEED:
                parser.error(f"pins are for the default seed {DEFAULT_SEED}")
            write_pins(launcher, args.workload, pool)
            return 0
        for _ in range(SETUP_REPEATS - 1):
            setup_raw.append(setup_probe_seconds(args.workload, args.seed))
            setup_samples.append(setup_raw[-1] * clock.scale())
        pins = load_pins(args.workload, args.seed)
        totals = tracing.Totals(launcher.tracer.absent) if args.trace else None
        run = measure(launcher, pool, args.seconds, pins, totals)

    if totals is not None:
        metrics = totals.metrics()
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
        totals.write_spans(span_file)
        print(f"traced ops: {totals.ops}; spans written to {span_file.relative_to(ROOT)}")
        if totals.absent:
            print("absent: " + ", ".join(totals.absent))
        if totals.probe_errors:
            print(f"probe errors: {totals.probe_errors}")
    else:
        metrics = end_to_end(run, pool, setup_samples)
        raw = end_to_end(run, pool, setup_raw, scaled=False)
        units = dict(END_TO_END)
        print(f"latency samples: {len(set(run.slots))} inputs, each the median of its repeats "
              f"in {len(run.seconds)} ops; setup samples: "
              + " ".join(f"{s:.4f}" for s in setup_samples))
        print(f"pinned to CPU {cpu}; calibration loop median "
              f"{statistics.median(clock.samples + run.calibrations) * 1000:.2f} ms "
              f"(reference {CAL_REF_S * 1000:.1f} ms); unscaled: "
              + ", ".join(f"{k} {raw[k]:.6g}" for k in
                          ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms")))
        print(f"uncertified_ratio {1 - metrics['certified_ratio']:.6f} ratio "
              f"over the first {len(pool)} ops; "
              f"failed_ratio {run.failed / run.attempted:.6f} ratio")
    for problem in run.problems[:20]:
        print("FAILED " + problem)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
