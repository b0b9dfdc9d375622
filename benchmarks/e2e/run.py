"""End-to-end benchmark of the Hyperion/DSM-PM2 simulator.

Usage::

    python3 benchmarks/e2e/run.py --seed 0                 # all four workloads
    python3 benchmarks/e2e/run.py --workload figures --seed 1
    python3 benchmarks/e2e/run.py --workload serve --trace  # per-layer metrics

With ``--workload`` the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Every line before it reads ``name workload value unit (n=...,
min=..., IQR=...)``.  A self-describing ``result.json`` (commit, host,
repeat counts, median/min/IQR of every metric) is written to ``--out``.

Load comes from this one process as a closed loop: batch passes run one
after another, each in a fresh child process with ``PYTHONPATH=<src>``; the
``serve`` workload is one client, sending its next request only after the
previous grid arrived, against a one-worker server.  This process and its
children all run on one CPU.  The amount of work follows the run length,
``run_seconds`` in BENCHMARK.json (``--seconds`` exists only so the
benchmark's command line can state it): the number of batch passes and of
serve rounds is the run length divided by their nominal length on the
reference host.  On a slow host a run ends after fewer passes or loops (at
least :data:`MIN_UNITS`), so it stays near the run length.  Every timing is
scaled to the reference host by a calibration kernel timed next to it
(``hostspeed.py``).  See README.md for the workloads, the metrics and their
bounds.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: (name, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cells_per_s", "cells/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("cold_p50_ms", "ms", "lower"),
    ("cold_p90_ms", "ms", "lower"),
    ("warm_p50_ms", "ms", "lower"),
    ("warm_p90_ms", "ms", "lower"),
)
PER_LAYER = tracer.PER_LAYER

#: seconds one run measures (BENCHMARK.json's ``run_seconds``)
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
#: setup-only launches per run; setup_s is their median
SETUP_LAUNCHES = 10
#: nominal seconds of one batch pass (2 vCPUs at 2.1 GHz, see README.md)
PASS_SECONDS = {"figures": 5.0, "scenarios": 5.0, "scale": 6.5}
#: nominal seconds of one serve round (12 cold plus 12 warm requests)
ROUND_SECONDS = 2.0
#: serve loops per run, each replaying the same requests on a fresh server
SERVE_LOOPS = 3
#: batch passes or serve loops a run makes however slow the host is
MIN_UNITS = 2
#: untraced passes a traced run measures first (trace.overhead_ratio's base)
BASELINE_PASSES = 2
#: serve rounds a traced run replays, traced and not
SERVE_TRACE_ROUNDS = 3
#: client poll interval while a sweep runs
POLL_SECONDS = 0.001
#: cells per serve request (1 app x 1 cluster x 2 node counts x 2 protocols)
CELLS_PER_REQUEST = 4

_clock = time.perf_counter


class BenchmarkError(RuntimeError):
    """A child process failed or the checkout cannot be benchmarked."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-quantile (0..1) of *values*."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            fraction *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return fraction


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularised incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def hd_percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the *q*-quantile (0 < q < 1) of *values*.

    Every sorted value is weighted by the chance that the *q*-quantile of
    a sample of this size is the value of that rank, instead of reading
    one or two values at a fixed rank.  Where the values come in clusters
    (cells of a few shapes, requests of a few sizes), a single rank can
    fall on either side of a gap from run to run; the weighted estimate
    moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return math.fsum((cdf[i + 1] - cdf[i]) * value for i, value in enumerate(ordered))


def summary(values, value: float | None = None) -> dict:
    """Median, min, quartiles and sample count of *values*.

    *value* is the reported number when it is not the median (a percentile,
    a maximum).
    """
    values = [float(v) for v in values]
    q1, median, q3 = (percentile(values, q) for q in (0.25, 0.5, 0.75))
    return {
        "value": median if value is None else float(value),
        "n": len(values),
        "median": median,
        "min": min(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------
def commit_of(src: Path) -> str:
    """The git commit of the tree *src* lives in, or ``unknown``."""
    tree = src.resolve().parent
    if not (tree / ".git").exists():
        return "unknown"
    try:
        head = subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(tree), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def host_fingerprint() -> dict:
    """Python, core count, platform and CPU model of this host."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
        "cpu": cpu,
    }


def load_pins() -> dict:
    return json.loads((HERE / "digests.json").read_text())


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
def child_env(src: Path, out: Path) -> dict:
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0", TMPDIR=str(tmp))
    return env


def run_child(args: list[str], env: dict) -> tuple[float, str]:
    """Run ``passes.py`` with *args*; returns (spawn -> ``ready`` seconds,
    the rest of its standard output)."""
    started = _clock()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passes.py"), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    ready = proc.stdout.readline()
    setup = _clock() - started
    rest, err = proc.communicate()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchmarkError(f"passes.py {' '.join(args)} failed:\n{err.strip()}")
    return setup, rest


class Server:
    """One ``serve`` process: the CLI server, or the traced launcher."""

    def __init__(self, src: Path, out: Path, traced: bool = False):
        store = out / "serve-store"
        shutil.rmtree(store, ignore_errors=True)
        if traced:
            cmd = [sys.executable, str(HERE / "passes.py"), "serve", "--out", str(out)]
        else:
            cmd = [
                sys.executable, "-m", "repro.harness.cli", "serve", "--host", "127.0.0.1",
                "--port", "0", "--workers", "1", "--jobs", "1", "--cache-dir", str(store),
            ]
        self.store = store
        self.lines: list[str] = []
        self.address: str | None = None
        self._ready = threading.Event()
        started = _clock()
        self.proc = subprocess.Popen(
            cmd, env=child_env(src, out), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(120) or self.address is None:
            self.stop()
            raise BenchmarkError("server did not start:\n" + "".join(self.lines[-20:]))
        self.setup_s = _clock() - started
        host_port = self.address.split("//", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)
            match = re.search(r"listening on (http://\S+)", line)
            if match and self.address is None:
                self.address = match.group(1)
                self._ready.set()
        self._ready.set()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkError("VmHWM not reported")

    def stop(self, graceful: bool = True) -> None:
        """``POST /shutdown`` and wait for the process to drain and exit
        (or, when not *graceful*, terminate an idle server at once)."""
        if self.proc.poll() is None and self.address is not None and graceful:
            try:
                call(self, "POST", "/shutdown")
            except OSError:
                pass
        elif self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        shutil.rmtree(self.store, ignore_errors=True)


def call(server: Server, method: str, path: str, body: str | None = None) -> tuple[int, dict]:
    """One HTTP exchange on its own connection (``Connection: close``).

    A fresh connection per exchange is what ``urllib`` and ``curl`` do.  On
    a kept-alive connection every response of the service currently waits
    ~40 ms for the client's delayed ACK (headers and body leave in two
    writes), which would quantise every latency to that step.
    """
    conn = http.client.HTTPConnection(server.host, server.port, timeout=300)
    headers = {"Connection": "close"}
    if body is not None:
        headers["Content-Type"] = "application/json"
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def serve_loop(server: Server, requests, pins: dict) -> dict:
    """Closed-loop client: submit, poll every millisecond, fetch the grid.

    Each request's latency runs from just before ``POST /sweeps`` to the
    grid's arrival and is recorded, in load order per kind, whether the
    request failed or not, in reference-host time (``hostspeed.py``): the
    client samples the host's speed between requests and, while it waits,
    in place of a poll interval at most every ``hostspeed.PERIOD_S``.  A
    request fails unless its sweep is ``done`` and the grid holds exactly
    its cells, each matching its pinned digest.
    """
    latencies: dict[str, list[float]] = {"cold": [], "warm": []}
    raw_ms: list[float] = []
    failed = 0
    wall = ref_wall = 0.0
    sampler = hostspeed.Sampler()
    sampler.sample()
    for kind, request in requests:
        sent = _clock()
        status, reply = call(server, "POST", "/sweeps", json.dumps(request))
        state = "rejected"
        if status == 202:
            path = f"/sweeps/{reply['id']}"
            while True:
                _, detail = call(server, "GET", path)
                state = detail["state"]
                if state not in ("queued", "running"):
                    break
                if _clock() - sampler.starts[-1] >= hostspeed.PERIOD_S:
                    sampler.sample()
                else:
                    time.sleep(POLL_SECONDS)
        grid = None
        if state == "done":
            status, reply = call(server, "GET", path + "/grid")
            grid = reply.get("grid") if status == 200 else None
        got = _clock()
        sampler.sample()
        elapsed = sampler.reference_s(sent, got)
        wall += got - sent
        ref_wall += elapsed
        latencies[kind].append(elapsed * 1e3)
        raw_ms.append((got - sent) * 1e3)
        if grid is None or not workloads.check_grid(request, grid, pins):
            failed += 1
    return {
        "attempted": len(requests),
        "failed": failed,
        "wall_s": wall,
        "ref_wall_s": ref_wall,
        "host_slowdown": sampler.slowdown(),
        "cold_ms": latencies["cold"],
        "warm_ms": latencies["warm"],
        "raw_ms": raw_ms,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------
class Run:
    """Outcome of one workload run: counts, metric summaries, raw samples."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict] = {}
        self.samples: dict = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _check_batch_pass(result: dict, seen: set, pin: str | None) -> int:
    """Failed cells of one batch pass: every cell when the output digest is
    off (pin, warm re-read, or an earlier pass), else the failed checks."""
    seen.add(result["digest"])
    if result["warm_digest"] != result["digest"] or len(seen) > 1:
        return result["cells"]
    if pin is not None and result["digest"] != pin:
        return result["cells"]
    return result["verify_failures"]


def interleaved(setup, work, count: int, seconds: float | None = None) -> tuple[list, list]:
    """Call *work* up to *count* times with the :data:`SETUP_LAUNCHES`
    calls of *setup* spread evenly before them; returns both lists of
    results.

    Spread over the run, a burst of host slowness meets only a few of the
    set-up launches, whose median is ``setup_s``.  With *seconds*, a slow
    host ends the run early: after :data:`MIN_UNITS` calls of *work*, the
    next one starts only if it can end within *seconds* of the start,
    judged by the last one's length; the set-up launches left over then
    run at the end.
    """
    started = _clock()
    setups, results = [], []
    for i in range(count):
        launches = SETUP_LAUNCHES * (i + 1) // count - SETUP_LAUNCHES * i // count
        setups += [setup() for _ in range(launches)]
        begun = _clock()
        results.append(work())
        now = _clock()
        if seconds is not None and i + 1 >= MIN_UNITS and now + (now - begun) > started + seconds:
            break
    setups += [setup() for _ in range(SETUP_LAUNCHES - len(setups))]
    return setups, results


def scaled_setup(launch) -> float:
    """Seconds *launch* reports, in reference-host time: this process
    samples the host's speed while the child starts (``hostspeed.py``)."""
    with hostspeed.Sampler() as sampler:
        started = _clock()
        seconds = launch()
    return sampler.reference_s(started, started + seconds)


def per_item_median(series) -> list[float]:
    """Per position, the low median of several equally long timing lists.

    Every list times the same items doing identical work (a cell in each
    pass, a request in each serve loop), each scaled to the reference host.
    Of an even count the smaller middle value is taken, so of two times a
    one-off stall in either is dropped.
    """
    return [statistics.median_low(times) for times in zip(*series, strict=True)]


def _latency_metrics(cold_ms: list[float], warm_ms: list[float]) -> dict:
    return {
        f"{kind}_p{round(q * 100)}_ms": summary(values, hd_percentile(values, q))
        for kind, values in (("cold", cold_ms), ("warm", warm_ms))
        for q in (0.5, 0.9)
    }


def run_batch(run: Run, seed: int, seconds: float, trace: bool, src: Path, out: Path):
    workload = run.workload
    env = child_env(src, out)
    base = ["--workload", workload, "--seed", str(seed), "--out", str(out / "pass")]
    pin = load_pins()[workload].get(str(seed))
    seen: set[str] = set()

    def one_pass(mode: str) -> dict:
        _, text = run_child([mode, *base], env)
        result = json.loads(text.strip().splitlines()[-1])
        run.attempted += result["cells"]
        run.failed += _check_batch_pass(result, seen, pin)
        return result

    if trace:
        passes = [one_pass("pass") for _ in range(BASELINE_PASSES)]
        traced = one_pass("traced")
        shutil.move(str(out / "pass" / "trace.json"), str(out / "trace.json"))
        payload = json.loads((out / "trace.json").read_text())
        overhead = traced["wall_s"] / statistics.median(p["wall_s"] for p in passes)
        for name, value in tracer.layer_metrics(payload, overhead).items():
            run.metrics[name] = {"value": value, "n": 1}
        run.samples = {"passes": passes, "traced": traced}
        return
    setups, passes = interleaved(
        lambda: scaled_setup(lambda: run_child(["setup", *base], env)[0]),
        lambda: one_pass("pass"),
        max(MIN_UNITS, round(seconds / PASS_SECONDS[workload])),
        seconds,
    )
    cold = per_item_median(p["cold_s"] for p in passes)
    warm = per_item_median(reads for p in passes for reads in p["warm_s"])
    rss = [p["rss_mb"] for p in passes]
    run.metrics = {
        "setup_s": summary(setups),
        "cells_per_s": summary([p["cells"] / p["ref_wall_s"] for p in passes]),
        "peak_rss_mb": summary(rss, max(rss)),
        **_latency_metrics([s * 1e3 for s in cold], [s * 1e3 for s in warm]),
    }
    run.samples = {"setup_s": setups, "passes": passes}


def run_serve(run: Run, seed: int, seconds: float, trace: bool, src: Path, out: Path):
    pins = load_pins()["serve"]
    requests = workloads.serve_requests(seed)

    def session(traced: bool, rounds: int) -> tuple[dict, float]:
        server = Server(src, out, traced=traced)
        try:
            loop = serve_loop(server, requests[: rounds * workloads.REQUESTS_PER_ROUND], pins)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        run.attempted += loop["attempted"]
        run.failed += loop["failed"]
        return loop, rss

    if trace:
        plain, _ = session(False, SERVE_TRACE_ROUNDS)
        traced, _ = session(True, SERVE_TRACE_ROUNDS)
        payload = json.loads((out / "trace.json").read_text())
        overhead = traced["wall_s"] / plain["wall_s"]
        for name, value in tracer.layer_metrics(payload, overhead).items():
            run.metrics[name] = {"value": value, "n": 1}
        run.samples = {"plain": plain, "traced": traced}
        return

    def launch() -> float:
        server = Server(src, out)
        server.stop(graceful=False)
        return server.setup_s

    rounds = max(1, round(seconds / (SERVE_LOOPS * ROUND_SECONDS)))
    setups, sessions = interleaved(
        lambda: scaled_setup(launch), lambda: session(False, rounds), SERVE_LOOPS, seconds
    )
    loops, rss = zip(*sessions)
    run.metrics = {
        "setup_s": summary(setups),
        "cells_per_s": summary(
            [CELLS_PER_REQUEST * loop["attempted"] / loop["ref_wall_s"] for loop in loops]
        ),
        "peak_rss_mb": summary(rss, max(rss)),
        **_latency_metrics(
            per_item_median(loop["cold_ms"] for loop in loops),
            per_item_median(loop["warm_ms"] for loop in loops),
        ),
    }
    run.samples = {"setup_s": setups, "loops": loops}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, src: Path, out: Path) -> Run:
    out.mkdir(parents=True, exist_ok=True)
    run = Run(workload)
    if workload == "serve":
        run_serve(run, seed, seconds, trace, src, out)
    else:
        run_batch(run, seed, seconds, trace, src, out)
    shutil.rmtree(out / "tmp", ignore_errors=True)
    return run


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def report_lines(run: Run, trace: bool) -> list[str]:
    lines = []
    for name, unit, _ in PER_LAYER if trace else END_TO_END:
        m = run.metrics[name]
        extra = f", min={m['min']:.6g}, IQR={m['iqr']:.6g}" if "iqr" in m else ""
        lines.append(f"{name} {run.workload} {m['value']:.6g} {unit} (n={m['n']}{extra})")
    return lines


def contract_line(run: Run, trace: bool) -> str:
    metrics = {
        name: {"value": run.metrics[name]["value"], "unit": unit}
        for name, unit, _ in (PER_LAYER if trace else END_TO_END)
    }
    return json.dumps(
        {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }
    )


def write_artifact(runs: list[Run], args, src: Path, out: Path) -> Path:
    """``result.json``: the run described well enough to compare later."""
    units = {n: u for n, u, _ in (PER_LAYER if args.trace else END_TO_END)}
    artifact = {
        "benchmark": "hyperion-e2e",
        "commit": args.commit or commit_of(src),
        "host": host_fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workloads": {
            run.workload: {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"unit": units[name], **summary_} for name, summary_ in run.metrics.items()
                },
                "samples": run.samples,
            }
            for run in runs
        },
    }
    path = out / "result.json"
    path.write_text(json.dumps(artifact, indent=2))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--commit", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    label = args.workload or "all"
    out = args.out or ROOT / ".e2e-out" / f"{label}-s{args.seed}-t{args.trace}-{os.getpid()}"
    out = out.resolve()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if hasattr(os, "sched_setaffinity"):
        # this process and every child it starts share one CPU, so the
        # host-speed samples time the CPU the measured work runs on
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runs = []
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), src, out / name)
            runs.append(run)
            for line in report_lines(run, bool(args.trace)):
                print(line, flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_artifact(runs, args, src, out)
    if args.workload:
        print(contract_line(runs[0], bool(args.trace)))
        return 0
    return 0 if all(run.correct for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
