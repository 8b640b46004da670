"""javasmell benchmark: seeded corpora, timed analyze processes, checked outputs.

    python3 bench/run.py --workload bodies|linked|monolith|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; javasmell is run from its `src/`.
The corpus is generated from --seed into `.bench_work/` and removed at the
end. One operation is one source file of one analyze run.

--trace 0 measures end to end, from outside the program. For --seconds it
runs fresh `python3 -m javasmell analyze` processes one after another, each
after SETUP_PER_ROUND (two) fresh `python3 -m javasmell --version`
processes, and reports
medians: analyze_s (wall time), lines_per_s (corpus lines / analyze_s),
cpu_s (user + system time of the process and its children), peak_rss_mb
(peak resident memory of the process tree) and setup_s (wall time of the
--version process). The first run's outputs are checked against the
corpus facts and every later run must be byte-identical to it; on linked a
--workers 1 run must be too.

--trace 1 measures per layer. It alternates untraced and traced in-process
runs of the same analysis (bench/traced.py), reports the median of each
per-layer metric over the traced runs plus trace.wall_s and
trace.overhead_s, writes the
last traced run's spans and self times to
`.bench_work/trace-<workload>-<seed>.json`, and checks that every output is
byte-identical to an untraced `javasmell analyze` process's.

The metric names and units are those of BENCHMARK.json at the root of the
checkout. The last line of stdout is one JSON object: correct, attempted,
failed and metrics. The exit code is 0 when the run completed, even if a check failed
(`correct` is then false and stderr says why).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpora  # noqa: E402
import layers  # noqa: E402

TIMESTAMP = "2024-01-01T00:00:00"
SETUP_PER_ROUND = 2

# Workers per workload: only linked takes the parallel-parse path.
WORKERS = {"bodies": 1, "linked": 2, "monolith": 1}



def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def javasmell(*args) -> list:
    return [sys.executable, "-m", "javasmell", *args]


def analyze_args(name: str, corpus: Path, out: Path, workers: int | None = None) -> list:
    """The `javasmell analyze` arguments every run of workload *name* uses."""
    return [
        "analyze", "--src", str(corpus / "src"), "--out", str(out), "--project", name,
        "--timestamp", TIMESTAMP, "--workers", str(workers or WORKERS[name]),
        "--truth", str(corpus / "truth.tsv"), "--metadata", str(corpus / "repo.meta"),
    ]


# ----------------------------------------------------------------------
# processes


class TreeRss:
    """Samples the summed resident memory of a process and its
    descendants, so that worker processes count too."""

    INTERVAL = 0.05

    def __init__(self, pid: int):
        self.pid = pid
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @staticmethod
    def _rss_kb(pid: int) -> int:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        return 0

    @staticmethod
    def _children(pid: int) -> list:
        kids = []
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    kids += [int(k) for k in fh.read().split()]
        except OSError:
            pass
        return kids

    def _sample(self) -> float:
        total, todo = 0, [self.pid]
        while todo:
            pid = todo.pop()
            try:
                total += self._rss_kb(pid)
            except (OSError, ValueError):
                continue
            todo += self._children(pid)
        return total * 1024 / 1e6

    def _run(self):
        while not self._stop.wait(self.INTERVAL):
            self.peak_mb = max(self.peak_mb, self._sample())

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_mb


def run_process(argv, env, log_prefix: Path, sample_rss: bool = False) -> dict:
    """Run *argv* to completion; wall, CPU and memory from outside."""
    with open(f"{log_prefix}.stdout", "wb") as so, open(f"{log_prefix}.stderr", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=ROOT)
        sampler = TreeRss(proc.pid) if sample_rss else None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            tree_peak = sampler.stop() if sampler else 0.0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss (KiB) covers the process and its reaped children one at
        # a time; the sampled tree sum covers children running together.
        "peak_rss_mb": max(usage.ru_maxrss * 1024 / 1e6, tree_peak),
        "stderr": Path(f"{log_prefix}.stderr").read_text(encoding="utf-8", errors="replace"),
    }


class Rounds:
    """Whole rounds of work within a time budget: always one, and another
    only while it fits, judged by the length of the round before."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.started = None

    def another(self, done: int) -> bool:
        now = time.perf_counter()
        round_s = now - self.started if self.started is not None else 0.0
        self.started = now
        return done == 0 or now + round_s <= self.end


class Workload:
    """One seeded corpus, the runs made on it, and what they counted."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.corpus = work / "corpus"
        self.facts = corpora.generate(name, seed, self.corpus)
        self.files = self.facts["totals"]["files"]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.samples = 0  # rounds measured
        self.errors: list = []

    def account(self, run: dict, out: Path, counted: bool = True) -> list:
        """Failed files of one run; adds them to the counts and checks them."""
        failed = checks.run_failures(self.facts, run["exit"], out, run["stderr"])
        if counted:
            self.attempted += self.files
            self.failed += len(failed)
        self.errors += checks.check_failures(self.facts, failed)
        return failed

    def reference(self, out: Path) -> dict:
        """One untraced analyze process, fully checked; its digests."""
        argv = javasmell(*analyze_args(self.name, self.corpus, out))
        run = run_process(argv, self.env, out.with_suffix(""))
        failed = self.account(run, out)
        self.errors += checks.check_outputs(self.facts, out, failed)
        return checks.digest(out)

    # ------------------------------------------------------------------
    def end_to_end(self, seconds: float) -> dict:
        version = javasmell("--version")
        warm = run_process(version, self.env, self.work / "warm")  # bytecode caches
        if warm["exit"] != 0:
            raise RuntimeError(f"javasmell --version failed: {warm['stderr']}")
        setup, samples = [], []
        reference = None
        rounds = Rounds(seconds)
        while rounds.another(len(samples)):
            setup += [run_process(version, self.env, self.work / "version")["wall_s"]
                      for _ in range(SETUP_PER_ROUND)]
            out = self.work / f"out{len(samples)}"
            argv = javasmell(*analyze_args(self.name, self.corpus, out))
            samples.append(run_process(argv, self.env, self.work / "analyze", sample_rss=True))
            failed = self.account(samples[-1], out)
            if reference is None:
                self.errors += checks.check_outputs(self.facts, out, failed)
                reference = checks.digest(out)
            else:
                self.errors += checks.check_identical(reference, out, f"repeat run {len(samples) - 1}")
                shutil.rmtree(out, ignore_errors=True)
        if WORKERS[self.name] > 1:
            # README contract: output does not depend on the worker count.
            out = self.work / "out-workers1"
            argv = javasmell(*analyze_args(self.name, self.corpus, out, workers=1))
            run = run_process(argv, self.env, self.work / "workers1")
            self.account(run, out, counted=False)
            self.errors += checks.check_identical(reference, out, "--workers 1 run")
        analyze_s = statistics.median(s["wall_s"] for s in samples)
        self.samples = len(samples)
        return {
            "analyze_s": analyze_s,
            "lines_per_s": self.facts["totals"]["lines"] / analyze_s,
            "cpu_s": statistics.median(s["cpu_s"] for s in samples),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "setup_s": statistics.median(setup),
        }

    # ------------------------------------------------------------------
    def per_layer(self, seconds: float) -> dict:
        reference = self.reference(self.work / "out-ref")
        traced_script = str(BENCH / "traced.py")
        walls = {"plain": [], "traced": []}
        derived, spans = [], None
        rounds = Rounds(seconds)
        k = 0
        while rounds.another(k):
            # Alternate which mode runs first, so drift hits both alike.
            for mode in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
                out = self.work / f"out-{mode}{k}"
                result_path = self.work / f"{mode}.json"
                argv = [sys.executable, traced_script, "--mode", mode, "--result", str(result_path),
                        "--", *analyze_args(self.name, self.corpus, out)]
                run = run_process(argv, self.env, self.work / mode)
                self.account(run, out)
                self.errors += checks.check_identical(reference, out, f"{mode} run {k}")
                if not result_path.is_file():
                    raise RuntimeError(f"{mode} run wrote no result: {run['stderr'][-2000:]}")
                result = json.loads(result_path.read_text(encoding="utf-8"))
                walls[mode].append(result["wall_s"])
                if mode == "traced":
                    spans = result["spans"]
                    size = sum((out / n).stat().st_size for n in checks.OUTPUTS if (out / n).is_file())
                    derived.append(layers.layer_metrics(spans, size))
                shutil.rmtree(out, ignore_errors=True)
            k += 1
        self.samples = k
        metrics = {name: statistics.median(d[name] for d in derived) for name in derived[0]}
        metrics["trace.wall_s"] = statistics.median(walls["traced"])
        # Each pair ran back to back, so its difference cancels slow drift.
        metrics["trace.overhead_s"] = statistics.median(
            t - p for t, p in zip(walls["traced"], walls["plain"]))
        self.trace = {"workload": self.name, "seed": self.seed, "spans": spans,
                      "self_times": layers.self_times(spans)}
        return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work_root = ROOT / ".bench_work"
    work = work_root / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = Workload(name, seed, work)
        if trace:
            values = wl.per_layer(seconds)
            trace_file = work_root / f"trace-{name}-{seed}.json"
            trace_file.write_text(json.dumps(wl.trace) + "\n", encoding="utf-8")
        else:
            values = wl.end_to_end(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics {sorted(values)} are not those of BENCHMARK.json")
    values = {m: values[m] for m in units}
    for tag, message in wl.errors[:50]:
        print(f"check failed [{tag}] {name}: {message}", file=sys.stderr)
    totals = wl.facts["totals"]
    print(f"== {name} (seed {seed}, {'traced' if trace else 'end to end'}, {wl.samples} rounds; "
          f"corpus {totals['files']} files, {totals['lines']} lines, {totals['types']} types, "
          f"{totals['methods']} methods, {totals['findings']} expected findings)")
    for metric, value in values.items():
        print(f"  {metric:<30} {value:>14.6g} {units[metric]}")
    print(f"  {'attempted':<30} {wl.attempted:>14}")
    print(f"  {'failed':<30} {wl.failed:>14}")
    if trace:
        print("  self time by span (last traced run):")
        for span, row in list(wl.trace["self_times"].items())[:12]:
            print(f"    {span:<28} {row['self_s']:>10.4f} s  ({row['calls']} calls)")
    return {
        "correct": not wl.errors,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def preflight() -> str | None:
    for need in ("src/javasmell/__init__.py", "tests/random_java.py"):
        if not (ROOT / need).is_file():
            return f"{need} not found under {ROOT}; run from the root of a javasmell checkout"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="javasmell benchmark")
    ap.add_argument("--workload", required=True, choices=corpora.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    names = corpora.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
