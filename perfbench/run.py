"""contactnet benchmark: `contactnet experiment` end to end, plus a traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload museum201 --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With --trace 0 it runs `python -m contactnet experiment <config>` as a closed
loop with one client: a fresh interpreter per experiment, the next started
only after the previous one exits, for --seconds seconds (at least one). It
reports the wall time from spawn to exit (`experiment_s`) and the wall time of
a fresh interpreter that imports contactnet (`setup_s`), each sample scaled by
the calibration processes around it and the samples reduced to their
interquartile mean (see CALIBRATION), and the median peak resident set of the
experiment processes (`peak_rss_mb`).

With --trace 1 it runs the experiment once in a traced interpreter
(perfbench/traced.py), which wraps the calls into each module, and then
untraced experiments for the rest of the time; the per-layer metrics come
from the traced spans.

Every experiment's outputs are checked: identical bytes across the runs of
one invocation, the digests in perfbench/baseline.json on the default seed,
S + I + R = 1 with S nonincreasing and R nondecreasing, and a finite area for
every model. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is nonzero if any
experiment failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from workloads import DEFAULT_SEED, WORK_DIR, WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BASELINE = BENCH_DIR / "baseline.json"

# The host's CPU speed switches between a fast and a slow state (up to 1.7x
# apart), at times every second or two and at times once a minute, so raw
# medians of whole runs spread by up to 0.4 (IQR over median, ten runs). Every
# timed process is therefore sandwiched between two runs of this calibration,
# the import of contactnet's dependencies (not of contactnet itself), and
# scaled by CALIBRATION_REFERENCE_S over the mean of the two: roughly the
# calibration's time on the 2-core machine the baseline was recorded on, in
# its fast state. Measured there, the calibration and the experiments slow down
# by the same factor (1.51 and 1.52) in the slow state, where an in-process
# numpy loop slows down by 1.69. Consecutive timed processes share the
# calibration between them. A run reports the interquartile mean of its scaled
# samples: when the speed switches within a sample, its scaled time is off
# either way, and across runs the mean of the middle half varied a little less
# than the median did.
CALIBRATION = ["-c", "import numpy\nfrom scipy import sparse"]
CALIBRATION_REFERENCE_S = 0.25
# set-up varies less from sample to sample than an experiment, so only every
# SETUP_EVERY-th round takes a set-up sample and the others give their time to
# experiments
SETUP_EVERY = 3
# one invocation must end within 180 s; a child still running at this point is killed
INVOCATION_LIMIT_S = 170.0
CURVE_TOL = 1e-12

# metric name -> unit, as BENCHMARK.json declares them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

ENV_PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy, scipy, contactnet
info = {
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "contactnet_file": contactnet.__file__,
    "openblas": None,
    "openblas_threads": None,
}
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
    lib = ctypes.CDLL(path)
    for suffix in ("64_", ""):
        try:
            config = getattr(lib, "scipy_openblas_get_config" + suffix)
            threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        except AttributeError:
            continue
        config.restype = ctypes.c_char_p
        info["openblas"] = config().decode()
        info["openblas_threads"] = threads()
        break
print(json.dumps(info))
"""


class BenchError(Exception):
    """The benchmark cannot run here: no program to measure, or a broken checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CONTACTNET_THREADS", None)  # users get the default: one worker
    return env


# Spawns one process, times it from spawn to exit and reports its rusage. Linux
# carries a process's peak RSS across fork and exec, so a child forked by this
# script would report at least this script's own RSS; the launcher is a small
# interpreter (no site, no numpy), so the floor it leaves is a few MB.
LAUNCHER = r"""
import json, os, sys, time
args, out, err = json.loads(sys.argv[1])
actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
for fd, path in ((1, out), (2, err)):
    actions.append((os.POSIX_SPAWN_OPEN, fd, path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644))
start = time.perf_counter()
pid = os.posix_spawn(args[0], args, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(json.dumps([wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]))
"""


class Run(NamedTuple):
    wall_s: float  # from spawn to exit
    peak_rss_mb: float
    code: int
    stdout: str
    stderr_tail: str


class Runner:
    """Spawns the program's processes, one at a time, from the checkout root."""

    def __init__(self, deadline: float, work: Path):
        self.deadline = deadline
        self.env = child_env()
        self.work = work

    def run(self, args: list[str]) -> Run:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before starting a process")
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        request = json.dumps([[sys.executable, *args], str(out), str(err)])
        # its own session, so that a timeout kills the launcher and its child together
        proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, request], cwd=ROOT,
                                env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                start_new_session=True, text=True)
        try:
            report, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(args)} still running after the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"the process launcher failed with exit code {proc.returncode}")
        wall, maxrss_kb, code = json.loads(report)
        stderr_tail = err.read_text(encoding="utf-8", errors="replace")[-400:].strip()
        return Run(wall, maxrss_kb / 1024.0, code, out.read_text(encoding="utf-8"), stderr_tail)


# ---------------------------------------------------------------------------
# output checks

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(out: Path) -> dict:
    """sha256 of each top-level output file, and one over the trajectories tree."""
    digests = {p.name: _sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
    traj = out / "trajectories"
    if traj.is_dir():
        h = hashlib.sha256()
        for p in sorted(traj.rglob("*.csv")):
            h.update(p.relative_to(traj).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
        digests["trajectories/"] = h.hexdigest()
    return digests


def check_curves(path: Path) -> list[str]:
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]
    if rows[0] != ["t", "s", "i", "r"]:
        return [f"{path.name}: unexpected header {rows[0]}"]
    s, i, r = np.array([[float(x) for x in row[1:]] for row in rows[1:]]).T
    problems = []
    if np.max(np.abs(s + i + r - 1.0)) > CURVE_TOL:
        problems.append(f"{path.name}: S+I+R differs from 1 by more than {CURVE_TOL}")
    if np.any(np.diff(s) > 0):
        problems.append(f"{path.name}: S increases")
    if np.any(np.diff(r) < 0):
        problems.append(f"{path.name}: R decreases")
    return problems


def check_trajectories(traj: Path, n_nodes: int) -> list[str]:
    problems = []
    for path in sorted(traj.rglob("*.csv")):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            body = fh.read()
        values = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
        if header != "run,t,S,I,R" or values.size != 5 * body.count("\n"):
            problems.append(f"{path.name}: malformed trajectory CSV")
            continue
        run, _, s, i, r = values.reshape(-1, 5).T
        same_run = run[1:] == run[:-1]
        if np.any(s + i + r != n_nodes):
            problems.append(f"{path.name}: S+I+R differs from the node count")
        if np.any((np.diff(s) > 0) & same_run) or np.any((np.diff(r) < 0) & same_run):
            problems.append(f"{path.name}: S increases or R decreases within a run")
    return problems


def check_outputs(out: Path, n_nodes: int, full: bool) -> tuple[dict, list[str]]:
    """Digests of an experiment's outputs and the checks that failed on them.

    With full=False only the digests and the report are read; callers compare
    the digests with a run that had the full check.
    """
    if not (out / "report.json").is_file():
        return {}, ["no report.json written"]
    digests = output_digests(out)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = []
    areas = [row["area"] for row in report["quality"]["rows"]]
    areas += [m["area_between_sir_curves"] for m in report["models"]]
    if len(areas) != 2 * len(report["models"]) or not all(math.isfinite(a) for a in areas):
        problems.append("a model has no finite area")
    if full:
        curve_files = sorted(out.glob("curves_*.csv"))
        if len(curve_files) != len(report["models"]) + 1:
            problems.append("missing curve CSVs")
        for path in curve_files:
            problems += check_curves(path)
        if (out / "trajectories").is_dir():
            problems += check_trajectories(out / "trajectories", n_nodes)
    return digests, problems


class Checker:
    """Runs the output checks over every experiment process of one invocation."""

    def __init__(self, workload: str, seed: int, inputs: dict):
        self.out = ROOT / inputs["output_dir"]
        self.n_nodes = inputs["n_nodes"]
        self.first = None
        self.expected = None
        if seed == DEFAULT_SEED:
            recorded = json.loads(BASELINE.read_text(encoding="utf-8"))
            self.expected = recorded["workloads"][workload]["digests"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def record(self, run: Run) -> bool:
        """Check the outputs the process just wrote; count and return its success."""
        self.attempted += 1
        if run.code != 0:
            problems = [f"exit code {run.code}: {run.stderr_tail}"]
        else:
            digests, problems = check_outputs(self.out, self.n_nodes, self.first is None)
            if not problems and self.first is None:
                self.first = digests
                if self.expected is not None and digests != self.expected:
                    problems.append("outputs differ from the digests in baseline.json")
            elif not problems and digests != self.first:
                problems.append("outputs differ from the first run's bytes")
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems


# ---------------------------------------------------------------------------
# traced-run analysis

def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float,
                  output_bytes: int) -> tuple[dict, dict, float, float]:
    """Per-layer metrics, per-module self times, the self-time sum and the root span."""
    spans = trace["spans"]
    children = [0.0] * len(spans)
    roots = []
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += end - start
        else:
            roots.append(index)
    if len(roots) != 1 or spans[roots[0]][0] != "harness.run":
        raise BenchError("the trace does not have exactly one run_experiment root span")
    root = spans[roots[0]]
    total, self_time, calls, longest = {}, {}, {}, {}
    for index, (name, start, end, _) in enumerate(spans):
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration - children[index]
        calls[name] = calls.get(name, 0) + 1
        longest[name] = max(longest.get(name, 0.0), duration)

    # A span name with no calls has no entry in `total`, so its metrics are left
    # out: absent, not 0 s. Times are inclusive; only community.cluster has
    # child spans (laplacian, eigh, kmeans).
    m = {name + "_s": value for name, value in total.items() if name != "harness.run"}
    for name in ("community.cluster", "models.fit", "models.sample", "seeding.derived_rng"):
        if name in calls:
            m[name + "_calls"] = calls[name]
    if "community.eigh" in calls:
        m["community.eigh_max_s"] = longest["community.eigh"]
    ks = trace["results"].get("community.cluster")
    if ks:
        m["community.k"] = max(ks)
    sims = trace["results"].get("sir.simulate")
    if sims and sims["run_steps"]:
        m["sir.runs"] = len(sims["run_steps"])
        m["sir.run_steps"] = sum(sims["run_steps"])
        if m["sir.run_steps"]:
            m["sir.us_per_run_step"] = 1e6 * total["sir.simulate"] / m["sir.run_steps"]
        m["sir.absorbed_share"] = sum(sims["absorbed"]) / len(sims["absorbed"])
    m["harness.output_bytes"] = output_bytes
    m["harness.self_s"] = self_time["harness.run"]
    m["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall

    modules = {}
    for name, value in self_time.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + value
    return m, modules, sum(self_time.values()), root[2] - root[1]


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# one workload

def probe_environment(runner: Runner) -> dict:
    run = runner.run(["-c", ENV_PROBE])
    if run.code != 0:
        raise BenchError(f"cannot import contactnet and its dependencies: {run.stderr_tail}")
    info = json.loads(run.stdout)
    if Path(info.pop("contactnet_file")) != ROOT / "src" / "contactnet" / "__init__.py":
        raise BenchError("contactnet was not imported from this checkout")
    info["nproc"] = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CONTACTNET_THREADS"):
        info[var] = os.environ.get(var)
    return info


def describe(values: list[float]) -> str:
    return f"median {statistics.median(values):.4g} of {len(values)}, max {max(values):.4g}"


def interquartile_mean(values: list[float]) -> float:
    values = sorted(values)
    quarter = len(values) // 4
    return statistics.mean(values[quarter:len(values) - quarter])


def scale(samples: list[tuple[float, float, float]]) -> list[float]:
    """Each sample's wall time scaled by the calibrations around it (see CALIBRATION)."""
    return [wall * CALIBRATION_REFERENCE_S * 2 / (before + after)
            for wall, before, after in samples]


def timed(runner: Runner, args: list[str]) -> float:
    run = runner.run(args)
    if run.code != 0:
        raise BenchError(f"{' '.join(args)} failed: {run.stderr_tail}")
    return run.wall_s


def print_per_layer(name: str, metrics: dict, modules: dict, self_sum: float, root: float,
                    traced_wall: float, untraced_wall: float, unwrapped: list) -> None:
    print(f"per-layer {name} (one traced process {traced_wall:.3f} s, "
          f"untraced median {untraced_wall:.3f} s)")
    for metric, unit in PER_LAYER_UNITS.items():
        value = f"{metrics[metric]:.6g}" if metric in metrics else "absent"
        print(f"  {metric:28s} {value:>14s} {unit}")
    print(f"self time by module (sum {self_sum:.4f} s, run_experiment span {root:.4f} s)")
    for module, value in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {module:10s} {value:10.4f} s  {value / root:7.2%}")
    if unwrapped:
        print(f"  not found, so not traced: {', '.join(unwrapped)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and print its report; returns the result object."""
    work = ROOT / WORK_DIR / name
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(time.perf_counter() + INVOCATION_LIMIT_S, work)
    print(f"env {json.dumps(probe_environment(runner))}")
    inputs = write_inputs(WORKLOADS[name], seed, ROOT)
    print(f"inputs {name} seed={seed} N={inputs['n_nodes']} M={inputs['n_edges']} "
          f"density={inputs['density']:.5f}")
    checker = Checker(name, seed, inputs)
    experiment = ["-m", "contactnet", "experiment", inputs["config"]]

    start = time.perf_counter()
    walls, setups, rss = [], [], []
    calibrated = {"experiment_s": [], "setup_s": []}  # (raw wall, calibration before, after)
    calibrations = [] if trace else [timed(runner, CALIBRATION)]
    traced = None
    if trace:
        spans_path = work / "spans.json"
        checker.clear()
        traced = runner.run([str(BENCH_DIR / "traced.py"), inputs["config"], str(spans_path)])
        if not checker.record(traced):
            traced = None

    def calibrate(metric: str, wall: float) -> None:
        # the timed process ran between the last calibration and this one
        calibrations.append(timed(runner, CALIBRATION))
        calibrated[metric].append((wall, calibrations[-2], calibrations[-1]))

    # closed loop: the next experiment starts when the last one exited, while
    # another median-length round (experiment, calibration and at times set-up)
    # still fits
    rounds = []
    while not checker.failed and (
            not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds):
        round_start = time.perf_counter()
        checker.clear()
        run = runner.run(experiment)
        if not checker.record(run):
            break
        walls.append(run.wall_s)
        rss.append(run.peak_rss_mb)
        if not trace:
            calibrate("experiment_s", run.wall_s)
            # set-up samples are spread over the run, as the experiments are
            if len(walls) % SETUP_EVERY == 1:
                setups.append(timed(runner, ["-c", "import contactnet"]))
                calibrate("setup_s", setups[-1])
        rounds.append(time.perf_counter() - round_start)

    metrics = {}
    if trace and traced is not None and walls:
        untraced = statistics.median(walls)
        trace_data = json.loads(spans_path.read_text(encoding="utf-8"))
        metrics, modules, self_sum, root = layer_metrics(
            trace_data, traced.wall_s, untraced, tree_bytes(checker.out))
        if abs(self_sum - root) > 1e-6 * max(1.0, root):
            checker.problems.append(f"layer self times sum to {self_sum} s, "
                                    f"not the run_experiment span's {root} s")
        print_per_layer(name, metrics, modules, self_sum, root, traced.wall_s,
                        untraced, trace_data["unwrapped"])
    elif walls:
        scaled = {metric: scale(samples) for metric, samples in calibrated.items()}
        metrics = {metric: interquartile_mean(values) for metric, values in scaled.items()}
        metrics["peak_rss_mb"] = statistics.median(rss)
        print(f"end-to-end {name} (closed loop, 1 client; each time scaled by "
              f"{CALIBRATION_REFERENCE_S} s over the mean of the calibrations around it, "
              f"calibration {describe(calibrations)})")
        for metric, raw in (("experiment_s", walls), ("setup_s", setups)):
            print(f"  {metric:13s} {metrics[metric]:10.4f} s   "
                  f"(interquartile mean of {len(scaled[metric])} scaled, scaled "
                  f"{describe(scaled[metric])}; raw {describe(raw)})")
        print(f"  peak_rss_mb   {metrics['peak_rss_mb']:10.1f} MB  ({describe(rss)})")
    print(f"  failed_share  {checker.failed / checker.attempted:10.4f}     "
          f"({checker.failed} of {checker.attempted} experiment processes)")
    for problem in checker.problems:
        print(f"check failed: {problem}")
    if checker.first:
        print(f"outputs {json.dumps(checker.first, sort_keys=True)}")
    return {"correct": not checker.problems, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def with_units(metrics: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them, untraced and traced, if omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "contactnet" / "__init__.py").is_file():
        print(f"error: no contactnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = ([(args.workload, bool(args.trace))] if args.workload
            else [(w, t) for w in WORKLOADS for t in (False, True)])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in runs:
            result = run_workload(workload, args.seed, args.seconds, trace)
            units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
            metrics = with_units(result["metrics"], units)
            if len(runs) > 1:
                metrics = {f"{workload}.{k}": v for k, v in metrics.items()}
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0 if combined["correct"] and not combined["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
