#!/usr/bin/env python3
"""crisislang benchmark: seeded corpora, real CLI stages, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The run generates its workload's
corpus and config from the seed under .perfbench_work/<workload>/, then

--trace 0  runs the workload's set-up stages SETUP_REPEATS times and then
           its timed stages over and over for S seconds. Each stage is a
           fresh `python -m crisislang` child (PYTHONPATH=src) and the only
           child running: a closed loop with one client. spawner.py starts
           it, times it, reads its peak RSS from wait4, and times a fixed
           calibration task on the same CPU around it; times are reported
           at the reference CPU speed (see REFERENCE_CAL_S), because the CPU
           speed of a shared VM drifts. Prints the end-to-end metrics.
--trace 1  runs the same stages inside this process: set-up once traced,
           then untraced and traced rounds of the timed stages in turn for
           S seconds. Prints the per-layer metrics from the set-up and the
           first traced round, and the tracing overhead (median traced
           round over median untraced round, minus one).

Every stage's outputs are checked, and every repetition must leave
byte-identical outputs. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Metric names and units come
from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

sys.dont_write_bytecode = True

from checks import Checker, digest_tree  # noqa: E402
from corpus import CorpusSpec, build_corpus, run_config  # noqa: E402

WORK_DIR = ".perfbench_work"
# Stage times are reported at the reference CPU speed: the speed at which
# spawner.py's calibration task takes this long.
REFERENCE_CAL_S = 0.1
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0
K = 10
CV_FOLD_FITS = 63 * 3 * 5
CLASSES = ["UNIGRAM", "BIGRAM", "CRISIS_SENSITIVE"]


@dataclass(frozen=True)
class Workload:
    spec: CorpusSpec
    setup: tuple[tuple[str, ...], ...]
    timed: tuple[tuple[str, ...], ...]
    # items_per_s is rate_items(manifest) over the median wall of rate_stage;
    # the report also prints it under rate_name, in rate_unit.
    rate_stage: tuple[str, ...]
    rate_items: Callable[[dict], int]
    rate_name: str
    rate_unit: str
    # Stages whose median wall time the report prints under its own name.
    stage_figures: tuple[tuple[str, tuple[str, ...]], ...] = ()


MODEL = ("--model", "out/model.json")
WORKLOADS = {
    # The paper's headline path: label the non-geotagged pool with a trained
    # NB model. Per tweet: parse, tokenize, fallback-tag, vectorize, predict.
    "realtime_label": Workload(
        spec=CorpusSpec(
            ir=250, or_=1000, pc_ir=40, pc_or=40, unassigned=40, unlabeled=11250,
            malformed=60, duplicates=60, blank=3,
            nouns=12000, verbs=4000, adjs=2500, advs=1500, leaning=300, with_tags=False,
        ),
        setup=(("partition",), ("train",)),
        timed=(("classify", *MODEL),),
        rate_stage=("classify", *MODEL),
        rate_items=lambda manifest: manifest["unlabeled"],
        rate_name="classify_tweets_per_s",
        rate_unit="tweets/s",
    ),
    # The 63-subset search: 945 NB fits over a small, fully tagged corpus.
    # Model training and vectorizing dominate; ingest is negligible.
    "feature_search": Workload(
        spec=CorpusSpec(
            ir=20, or_=60, pc_ir=8, pc_or=8, unassigned=8, unlabeled=30,
            malformed=6, duplicates=6, blank=2,
            nouns=2500, verbs=700, adjs=400, advs=250, leaning=50, with_tags=True,
        ),
        setup=(("partition",),),
        timed=(("evaluate", "--mode", "combos"),),
        rate_stage=("evaluate", "--mode", "combos"),
        rate_items=lambda manifest: CV_FOLD_FITS,
        rate_name="cv_folds_per_s",
        rate_unit="fold fits/s",
    ),
    # The analyst's report: model writing, CV, the imbalance sweep, logistic
    # regression's dense design matrix, both divergence matrices and the
    # bigram clouds, which tag each model-recovered tweet twice.
    "analyst_report": Workload(
        spec=CorpusSpec(
            ir=200, or_=600, pc_ir=60, pc_or=60, unassigned=60, unlabeled=1500,
            malformed=20, duplicates=20, blank=3, day_before_crisis=150,
            nouns=6000, verbs=2000, adjs=1200, advs=700, leaning=150, with_tags=False,
        ),
        setup=(("partition",),),
        timed=(
            ("train",),
            ("evaluate", "--mode", "single"),
            ("evaluate", "--mode", "imbalance"),
            ("top-features", "--k", str(K)),
            ("divergence", "--mode", "hourly"),
            ("divergence", "--mode", "regional"),
            ("cloud", *MODEL, "--k", str(K)),
        ),
        rate_stage=("cloud", *MODEL, "--k", str(K)),
        rate_items=lambda manifest: manifest["unlabeled"],
        rate_name="cloud_tweets_per_s",
        rate_unit="tweets/s",
        stage_figures=(
            ("top_features_s", ("top-features", "--k", str(K))),
            ("cloud_s", ("cloud", *MODEL, "--k", str(K))),
        ),
    ),
}


@dataclass
class StageRun:
    argv: tuple[str, ...]
    raw_s: float  # wall time as measured
    wall_s: float  # wall time at the reference CPU speed
    rss_mb: float
    ok: bool


@dataclass
class Tally:
    """Attempted and failed stage runs, and every problem seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def stage_name(argv: tuple[str, ...]) -> str:
    return " ".join(a for a in argv if a not in MODEL)


class ChildRunner:
    """Runs one CLI stage at a time as a child process and checks it.

    Children are started by spawner.py, so their peak RSS is their own.
    """

    def __init__(self, root: Path, work: Path, checker: Checker, tally: Tally):
        self.work = work
        self.checker = checker
        self.tally = tally
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
        )
        self.logs = work / "logs"
        self.logs.mkdir()
        self.count = 0
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=CHILD_TIMEOUT_S + 10.0)
        except subprocess.TimeoutExpired:
            self.abort()

    def abort(self) -> None:
        """Stop the spawner now; it kills and reaps its running stage."""
        self.spawner.terminate()
        self.spawner.wait()

    def _spawn(self, args: list[str], log: Path) -> dict:
        request = {"args": args, "cwd": str(self.work), "env": self.env, "log": str(log),
                   "timeout": CHILD_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def warm(self) -> None:
        """Compile and cache the package once, outside any timing."""
        self._spawn([sys.executable, "-c", "import crisislang.cli"], self.logs / "warm.log")

    def run(self, argv: tuple[str, ...]) -> StageRun:
        self.count += 1
        log = self.logs / f"{self.count:03d}-{argv[0]}.log"
        cmd = [sys.executable, "-m", "crisislang", "--config", "config.json", *argv]
        reply = self._spawn(cmd, log)
        if reply["exit_code"] != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
            problems = [f"{stage_name(argv)}: exit code {reply['exit_code']}: {tail}"]
        else:
            problems = self.checker.check(argv)
        ok = self.tally.record(problems)
        ref_s = reply["wall_s"] * REFERENCE_CAL_S / reply["cal_s"]
        return StageRun(argv, reply["wall_s"], ref_s, reply["maxrss_kb"] / 1024.0, ok)


class DigestGuard:
    """Every repetition must leave the same output bytes as the first."""

    def __init__(self, out: Path, tally: Tally):
        self.out = out
        self.tally = tally
        self.first: dict[str, str] | None = None

    def check(self, what: str) -> None:
        digests = digest_tree(self.out)
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            changed = sorted(k for k in digests.keys() | self.first.keys()
                             if digests.get(k) != self.first.get(k))
            self.tally.problems.append(f"{what}: outputs differ from the first run: {changed}")


def timed_run(wl: Workload, root: Path, work: Path, checker: Checker, tally: Tally,
              seconds: float) -> dict:
    runner = ChildRunner(root, work, checker, tally)
    try:
        runner.warm()
        setup_guard = DigestGuard(work / "out", tally)
        setups = []
        for _ in range(SETUP_REPEATS):
            runs = [runner.run(argv) for argv in wl.setup]
            setups.append(runs)
            setup_guard.check("set-up")
            if not all(r.ok for r in runs):
                break

        guard = DigestGuard(work / "out", tally)
        reps: list[list[StageRun]] = []
        start = time.perf_counter()
        while not reps or (time.perf_counter() - start < seconds and not tally.problems):
            reps.append([runner.run(argv) for argv in wl.timed])
            guard.check("timed stages")
    except BaseException:
        runner.abort()
        raise
    runner.close()
    return {"setups": setups, "reps": reps, "digests": guard.first}


def stage_median(timing: dict, argv: tuple[str, ...], field: str = "wall_s") -> float:
    return statistics.median(
        getattr(r, field) for rep in timing["reps"] for r in rep if r.argv == argv
    )


def end_to_end(wl: Workload, manifest: dict, timing: dict,
               field: str = "wall_s") -> dict[str, float]:
    """The end-to-end metrics from the reference-speed times, or from the
    raw ones with field="raw_s"."""
    def total(runs: list[StageRun]) -> float:
        return sum(getattr(r, field) for r in runs)

    reps = timing["reps"]
    return {
        "wall_s": statistics.median(total(rep) for rep in reps),
        "setup_s": statistics.median(total(runs) for runs in timing["setups"]),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in rep) for rep in reps),
        "items_per_s": wl.rate_items(manifest) / stage_median(timing, wl.rate_stage, field),
    }


def stage_table(timing: dict, wl: Workload) -> list[str]:
    lines = [f"  {'stage (median of runs)':<28} {'runs':>4} {'wall_s':>8} {'raw_s':>8}"
             f" {'peak_rss_mb':>11}"]
    for argv in (*wl.setup, *wl.timed):
        runs = [r for group in (timing["setups"], timing["reps"]) for rep in group
                for r in rep if r.argv == argv]
        lines.append(
            f"  {stage_name(argv):<28} {len(runs):>4}"
            f" {statistics.median(r.wall_s for r in runs):8.3f}"
            f" {statistics.median(r.raw_s for r in runs):8.3f}"
            f" {max(r.rss_mb for r in runs):11.1f}"
        )
    return lines


def named_figures(wl: Workload, metrics: dict, timing: dict, tally: Tally) -> dict:
    """The figures each workload is designed around, for the report."""
    figures = {wl.rate_name: (metrics["items_per_s"], wl.rate_unit)}
    for name, argv in wl.stage_figures:
        figures[name] = (stage_median(timing, argv), "s")
    figures["failed_share"] = (tally.failed / tally.attempted, "ratio")
    return figures


class InProcessRunner:
    """Runs CLI stages by calling crisislang.cli.main inside this process."""

    def __init__(self, work: Path, checker: Checker, tally: Tally):
        import crisislang.cli

        self.cli = crisislang.cli
        self.work = work
        self.checker = checker
        self.tally = tally

    def run(self, argv: tuple[str, ...], tracer=None) -> float:
        sink = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        if tracer is not None:
            tracer.run_id += 1
            tracer.patch()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(["--config", "config.json", *argv])
            problems = [] if code == 0 else [f"{stage_name(argv)}: exit code {code}"]
        except Exception:  # a crash inside the program is a failed stage
            problems = [f"{stage_name(argv)}: {traceback.format_exc(limit=3)}"]
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.unpatch()
            os.chdir(cwd)
        if not problems:
            problems = self.checker.check(argv)
        self.tally.record(problems)
        return wall


def traced_run(wl: Workload, work: Path, checker: Checker, tally: Tally, seconds: float,
               names: list[str]) -> tuple[dict[str, float], dict]:
    from tracing import SpanStats, Tracer, layer_metrics, write_spans

    tracer = Tracer()
    runner = InProcessRunner(work, checker, tally)
    stage_walls: dict[int, tuple[str, float]] = {}

    def traced_stage(argv: tuple[str, ...]) -> float:
        wall = runner.run(argv, tracer)
        stage_walls[tracer.run_id] = (stage_name(argv), wall)
        return wall

    for argv in wl.setup:
        traced_stage(argv)
    guard = DigestGuard(work / "out", tally)
    untraced: list[float] = []
    traced: list[float] = []
    metrics = None
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start < seconds and not tally.problems):
        untraced.append(sum(runner.run(argv) for argv in wl.timed))
        guard.check("untraced round")
        traced.append(sum(traced_stage(argv) for argv in wl.timed))
        guard.check("traced round")
        if metrics is None:
            # The set-up and the first traced round give the layer figures;
            # later rounds are traced only to time the tracing.
            stats = SpanStats(tracer)
            accounting = [
                (stage, wall, stats.run_self_s[run], stats.run_hook_s[run])
                for run, (stage, wall) in sorted(stage_walls.items())
            ]
            metrics = layer_metrics(tracer, stats, names)
            kept_spans = list(tracer.spans)
            tracer.reset()
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_share"] = overhead
    write_spans(work / "spans.jsonl", kept_spans)
    info = {
        "untraced_round_s": untraced,
        "traced_round_s": traced,
        "overhead_share": overhead,
        "accounting": accounting,
        "digests": guard.first,
    }
    return metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description="crisislang benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM unwind normally, so every stage process is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    # One BLAS thread, here and in every stage process: the VM the figures
    # come from has two cores, and a second BLAS thread adds noise.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "crisislang" / "__main__.py").is_file():
        print(f"error: no crisislang source under {root / 'src'}", file=sys.stderr)
        return 2
    spec_doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec_doc["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    wl = WORKLOADS[args.workload]
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    lines, manifest = build_corpus(wl.spec, args.seed)
    config = run_config(args.seed, CLASSES)
    (work / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (work / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    sys.path.insert(0, str(root / "src"))
    checker = Checker(work, manifest, config)
    tally = Tally()

    print(f"crisislang benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  corpus: {manifest['lines']} records ({manifest['unlabeled']} unlabeled, "
          f"{manifest['IR']} IR, {manifest['OR']} OR, {manifest['skipped']} to skip)")
    if args.trace:
        metrics, info = traced_run(wl, work, checker, tally, args.seconds, list(units))
        for stage, wall, self_s, hook_s in info["accounting"]:
            print(f"  {stage:<28} traced wall {wall:.3f} s = self times {self_s:.3f} s"
                  f" + hooks {hook_s:.3f} s + {wall - self_s - hook_s:.4f} s unaccounted")
        print(f"  tracing overhead: {info['overhead_share']:+.1%} over "
              f"{len(info['traced_round_s'])} traced rounds")
        digests = info["digests"]
    else:
        timing = timed_run(wl, root, work, checker, tally, args.seconds)
        metrics = end_to_end(wl, manifest, timing)
        print("\n".join(stage_table(timing, wl)))
        for name, (value, unit) in named_figures(wl, metrics, timing, tally).items():
            print(f"  {name:<28} {value:12.4f} {unit}")
        info = {
            "raw_metrics": end_to_end(wl, manifest, timing, "raw_s"),
            "runs": [[(stage_name(r.argv), r.wall_s, r.raw_s, r.rss_mb) for r in rep]
                     for rep in (*timing["setups"], *timing["reps"])],
        }
        digests = timing["digests"]

    results_dir = root / WORK_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    earlier = [
        json.loads(p.read_text(encoding="utf-8"))
        for p in results_dir.glob(f"{args.workload}-seed{args.seed}-trace*.json")
    ]
    for doc in earlier:
        if doc.get("digests") and digests and doc["digests"] != digests:
            tally.problems.append(f"outputs differ from an earlier run with seed {args.seed}")

    for name in units:
        print(f"  {name:<44} {metrics[name]:14.4f} {units[name]}")
    correct = not tally.problems
    print("  checks: " + ("all passed" if correct else "FAILED"))
    for problem in tally.problems[:20]:
        print(f"    {problem}")
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "manifest": manifest, "metrics": metrics, "digests": digests,
         "problems": tally.problems, "detail": info}, indent=1) + "\n", encoding="utf-8")
    print(f"  results: {result_path.relative_to(root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
