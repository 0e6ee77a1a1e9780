"""Seeded learn/eval benchmark for rulehier.

Usage, from the repository root:

    python3 bench/run.py --workload hub-mine --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --record-references      # rewrite references.json
    python3 bench/suite.py --seeds 1-10           # steadiness over seeds
    python3 -m pytest -q bench/tests              # the benchmark's tests

One invocation runs one workload in this fresh process, as a closed loop:
one caller issues ``rulehier learn`` and ``rulehier eval`` through
``rulehier.cli.main`` one at a time, single-threaded (``run.workers = 1``).
A workload's datasets share one generated graph and differ in the miner's
sampling seed; ``--seed`` picks some of them from a pool of eight whose
outputs (sha256 of every rule file and of predictions.txt, and the MRR)
are recorded in ``bench/references.json``. Every command's outputs are
checked against that record, and any difference fails the run. Passes go
round-robin over the datasets until ``--seconds`` have passed, and each
figure is the mean over the datasets of the per-dataset median. Times are
scaled to the speed of a reference machine (see ``calibrate``); the record
in ``.bench/results/`` keeps the unscaled samples too.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` each untraced pass is followed by a traced one, and the
line carries the per-layer metrics of the traced passes; their difference
from the untraced passes is the tracing overhead. Human-readable lines
come first; a JSON record with every sample goes to ``.bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench"
REFERENCES = Path(__file__).resolve().parent / "references.json"

END_TO_END = {"setup_s": "s", "learn_s": "s", "eval_s": "s", "total_s": "s",
              "peak_rss_mb": "MB", "mrr": "ratio"}

# setup is a few milliseconds: repeat it so its median is steady
SETUP_REPEATS = 15

# the timed end-to-end samples, each a list per dataset
TIMED = ("setup_s", "learn_s", "eval_s")

# Seconds ``calibrate`` takes on the reference machine: a 2-vCPU VM on an
# Intel Xeon at 2.0 GHz, running CPython 3.11.
CAL_REF_S = 0.1


class SetupError(RuntimeError):
    """The checkout does not hold the program under test."""


def import_program():
    """Import rulehier from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "rulehier" / "__init__.py").is_file():
        raise SetupError(f"no rulehier package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rulehier
    if not Path(rulehier.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"rulehier imported from {rulehier.__file__}, "
                         f"not from {SRC}")
    import rulehier.cli
    return rulehier


def metadata() -> dict:
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rulehier").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_1m": os.getloadavg()[0]}


def calibrate() -> float:
    """Time a fixed pure-Python task: the machine's speed right now.

    On a shared machine the speed of the CPU a process gets drifts by up
    to 80% within minutes, and the process's CPU time drifts with its wall
    time. Each step of a pass (the learn, the evals, the setup samples) is
    therefore timed between two runs of this task, and its times are
    scaled by ``CAL_REF_S`` over their mean: seconds on the reference
    machine. The task uses no part of rulehier, so a change
    to the program moves only the command times.
    """
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(300_000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quiet_main(argv: list[str]) -> int:
    """``rulehier.cli.main`` with its summary line kept off our stdout."""
    from rulehier import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@dataclass
class Dataset:
    index: int
    root: Path
    ini: Path
    reference: dict | None
    # samples of each name in TIMED: as measured, and at reference speed
    raw: dict = field(default_factory=lambda: {k: [] for k in TIMED})
    ref: dict = field(default_factory=lambda: {k: [] for k in TIMED})
    cal: list[float] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    traced_learn: list[float] = field(default_factory=list)
    traced_eval: list[float] = field(default_factory=list)
    mrr: float | None = None

    @property
    def out(self) -> Path:
        return self.root / "out"


def prepare(workload, index: int, references: dict) -> Dataset:
    root = WORK / workload.name / f"d{index}"
    if root.exists():
        shutil.rmtree(root)
    ini = workload.write(root.relative_to(ROOT), index)
    ref = references.get(workload.name, {}).get(str(index))
    return Dataset(index, root, ini, ref)


def observed(ds: Dataset, what: str) -> dict:
    if what == "learn":
        return {p.name: sha256(p) for p in sorted(ds.out.glob("rules_*.txt"))}
    summary = (ds.out / "summary.txt").read_text(encoding="utf-8")
    mrr = next(line.split("=", 1)[1].strip() for line in summary.splitlines()
               if line.startswith("mrr ="))
    preds = ds.out / "predictions.txt"
    with open(preds, encoding="utf-8") as fh:
        queries = sum(1 for _ in fh)
    return {"predictions": sha256(preds), "mrr": mrr, "queries": queries}


class Checker:
    """Counts operations and compares every command's outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def command(self, ds: Dataset, what: str, argv: list[str],
                tracer=None) -> float:
        """Run one command, check its outputs, return its wall time.

        With ``tracer``, the command is also recorded as a span over the
        same call the returned time covers, so the output check below
        stays out of the traced time.
        """
        ref = ds.reference
        ops = (ref["targets"] if what == "learn" else ref["queries"]) \
            if ref else 1
        self.attempted += ops
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = quiet_main(argv)
            else:
                from layers import EVAL_CMD, LEARN_CMD
                sid = tracer.open(tracer.intern(
                    LEARN_CMD if what == "learn" else EVAL_CMD))
                try:
                    code = quiet_main(argv)
                finally:
                    tracer.close(sid)
        except Exception:  # a crashing command is a failed op set
            print(f"error: {what} on dataset {ds.index} raised:",
                  file=sys.stderr)
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += ops
            self.mismatches.append(f"d{ds.index} {what} exit {code}")
            return elapsed
        got = observed(ds, what)
        want = None if ref is None else (
            ref["rules"] if what == "learn" else
            {k: ref[k] for k in ("predictions", "mrr", "queries")})
        if got != want:
            self.failed += ops
            self.mismatches.append(f"d{ds.index} {what}: output differs "
                                   f"from reference")
            print(f"error: dataset {ds.index} {what} output differs from "
                  f"bench/references.json:\n  want {want}\n  got  {got}",
                  file=sys.stderr)
        if what == "eval":
            ds.mrr = float(got["mrr"])
        return elapsed


def measure_setup(ds: Dataset) -> list[float]:
    from rulehier.cli import load_config, select_targets
    from rulehier.kgstore import TripleStore
    cfg = load_config(ds.ini)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        store = TripleStore.from_directory(cfg.dataset_dir)
        select_targets(store, cfg)
        times.append(time.perf_counter() - t0)
    return times


def passes(datasets: list[Dataset], deadline: float):
    """Datasets round-robin: one full round, then more until the deadline.

    Stopping between passes rather than rounds keeps a run's overshoot to
    one pass; every dataset still has at least one sample.
    """
    first = True
    while True:
        for ds in datasets:
            if not first and time.perf_counter() >= deadline:
                return
            yield ds
        first = False


def untraced_pass(workload, ds: Dataset, checker: Checker) -> None:
    """One learn, ``eval_repeats`` evals and the setup samples; each of
    the three steps is timed between two calibrations."""
    ini = str(ds.ini)
    steps = (
        ("learn_s", lambda: [checker.command(ds, "learn",
                                             ["learn", "--config", ini])]),
        ("eval_s", lambda: [checker.command(ds, "eval",
                                            ["eval", "--config", ini])
                            for _ in range(workload.eval_repeats)]),
        ("setup_s", lambda: measure_setup(ds)))
    before = calibrate()
    for key, step in steps:
        times = step()
        after = calibrate()
        ds.cal.append(after)
        scale = 2 * CAL_REF_S / (before + after)
        ds.raw[key] += times
        ds.ref[key] += [t * scale for t in times]
        before = after


def traced_pass(ds: Dataset, checker: Checker, tracer) -> list[str]:
    """One learn + eval with every probe installed; returns missing names.

    The tracer keeps this pass's spans until the next traced pass.
    """
    from layers import PROBES, command_times, pass_metrics
    from spans import Installation
    tracer.reset()
    with Installation(tracer, PROBES) as inst:
        for what in ("learn", "eval"):
            checker.command(ds, what, [what, "--config", str(ds.ini)], tracer)
    ds.traced.append(pass_metrics(tracer, inst.missing))
    learn_s, eval_s = command_times(tracer)
    ds.traced_learn.append(learn_s)
    ds.traced_eval.append(eval_s)
    return inst.missing_names + [f"{span} (counter hook failed)"
                                 for span in sorted(tracer.broken)]


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n.

    Below 21 samples no percentile above the median has ten samples beyond
    it, and the maximum is reported instead.
    """
    n = len(samples)
    ordered = sorted(samples)
    if n >= 21:
        high, label = ordered[n - 11], f"p{100 * (n - 10) // n}"
    else:
        high, label = ordered[-1], "max"
    return {"median": statistics.median(samples), "high": high,
            "high_label": label, "n": n}


def mean_of_medians(datasets, get) -> float:
    return statistics.fmean(statistics.median(get(ds)) for ds in datasets)


def per_layer_values(datasets: list[Dataset], untraced_total: float) -> dict:
    """Per-layer metrics from each dataset's median traced pass.

    Taking every value from one pass per dataset, rather than a median per
    metric, keeps the self times adding up to the traced total.
    """
    chosen = []
    for d in datasets:
        totals = [a + b for a, b in zip(d.traced_learn, d.traced_eval)]
        i = sorted(range(len(totals)), key=totals.__getitem__)[
            (len(totals) - 1) // 2]
        chosen.append((d.traced[i], d.traced_learn[i], totals[i]))
    layer = {}
    for name in chosen[0][0]:
        values = [c[0][name] for c in chosen]
        layer[name] = None if None in values else statistics.fmean(values)
    learn = statistics.fmean(c[1] for c in chosen)
    total = statistics.fmean(c[2] for c in chosen)
    layer["trace.overhead_s"] = total - untraced_total
    return {"per_layer": layer, "traced_learn_s": learn,
            "traced_total_s": total}


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    meta = metadata()
    meta.update(workload=workload.name, seed=seed, seconds=seconds,
                trace=int(trace))
    indices = workload.datasets_for(seed)
    meta["datasets"] = indices
    datasets = [prepare(workload, i, references) for i in indices]
    checker = Checker()
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    # a traced pass follows each untraced one, so both see the same
    # machine speed and their difference is the tracing overhead
    n = 0
    for ds in passes(datasets, time.perf_counter() + seconds):
        untraced_pass(workload, ds, checker)
        if tracer is not None:
            meta["missing"] = traced_pass(ds, checker, tracer)
        n += 1
    meta["passes"] = n
    meta["calibration_s"] = statistics.median(c for d in datasets
                                              for c in d.cal)
    raw = {k: mean_of_medians(datasets, lambda d: d.raw[k]) for k in TIMED}
    raw["total_s"] = raw["learn_s"] + raw["eval_s"]
    e2e = {k: mean_of_medians(datasets, lambda d: d.ref[k]) for k in TIMED}
    e2e["total_s"] = e2e["learn_s"] + e2e["eval_s"]
    e2e.update({
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mrr": statistics.fmean(d.mrr or 0.0 for d in datasets),
    })
    record = {"meta": meta, "end_to_end": e2e, "unscaled": raw, "samples": {
        f"d{d.index}": {"calibration_s": d.cal, "unscaled": d.raw, **d.ref}
        for d in datasets}}
    if tracer is not None:
        spans_path = WORK / "results" / \
            f"{workload.name}-seed{seed}-spans.csv.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        meta["spans"] = str(spans_path.relative_to(ROOT))
        record.update(per_layer_values(datasets, raw["total_s"]))
    record["attempted"] = checker.attempted
    record["failed"] = checker.failed
    record["mismatches"] = checker.mismatches
    if checker.mismatches:
        # any wrong output condemns the whole workload's operations
        record["failed"] = checker.attempted
    record["failed_ops_frac"] = record["failed"] / max(1, checker.attempted)
    record["stats"] = {k: summarize([x for d in datasets for x in d.ref[k]])
                       for k in TIMED}
    return record


def report(workload, record: dict) -> list[str]:
    from layers import METRICS, check_floors, layer_shares
    meta, layer = record["meta"], record.get("per_layer")
    lines = [f"workload {workload.name}: {workload.why}",
             f"seed {meta['seed']} datasets {meta['datasets']} "
             f"passes {meta['passes']} "
             f"git {meta['git_sha']} src {meta['src_sha256'][:12]} "
             f"nproc {meta['nproc']} python {meta['python']} "
             f"load1 {meta['loadavg_1m']:.2f}"]
    e2e = record["end_to_end"]
    for name, unit in END_TO_END.items():
        extra = ""
        if name in record["stats"]:
            s = record["stats"][name]
            extra = (f"  (per command: median {s['median']:.4f}, "
                     f"{s['high_label']} {s['high']:.4f}, n={s['n']})")
        lines.append(f"  {name:<16} {e2e[name]:12.6f} {unit}{extra}")
    lines.append(f"  {'failed_ops_frac':<16} {record['failed_ops_frac']:12.6f}"
                 f"  ({record['failed']} of {record['attempted']} ops)")
    lines.append(f"times above are at reference speed: calibration median "
                 f"{meta['calibration_s']:.4f} s, reference {CAL_REF_S} s; "
                 f"unscaled " + ", ".join(
                     f"{k} {v:.6f}" for k, v in record["unscaled"].items()))
    for m in record["mismatches"]:
        lines.append(f"  MISMATCH {m}")
    if layer is None:
        return lines
    lines.append(f"traced total_s (unscaled) "
                 f"{record['traced_total_s']:.6f} s; missing probes: "
                 f"{', '.join(meta['missing']) or 'none'}")
    for m in METRICS:
        v = layer[m.name]
        shown = "missing" if v is None else f"{v:14.6f}"
        lines.append(f"  {m.name:<32} {shown} {m.unit}")
    total = record["traced_total_s"]
    shares = layer_shares(layer)
    lines.append("layer share of traced total_s: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in shares.items()))
    lines.append(f"  self times sum to {sum(shares.values()) / total:.2%} "
                 f"of traced total_s")
    for text, share, met in check_floors(workload.name, layer,
                                         record["traced_learn_s"], total):
        lines.append(f"  {'ok  ' if met else 'FAIL'} {text}: {share:.1%}")
    return lines


def result_line(record: dict) -> str:
    from layers import METRICS
    layer = record.get("per_layer")
    if layer is None:
        metrics = {k: {"value": record["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    else:
        metrics = {}
        for m in METRICS:
            v = layer[m.name]
            metrics[m.name] = {"value": v, "unit": m.unit}
            if v is None:
                metrics[m.name]["missing"] = True
    return json.dumps({"correct": not record["mismatches"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def record_references(workloads) -> int:
    """Run every pool dataset once and store its outputs as the reference."""
    from rulehier.cli import load_config, select_targets
    from rulehier.kgstore import TripleStore
    from workloads import POOL_SIZE
    refs = json.loads(REFERENCES.read_text(encoding="utf-8")) \
        if REFERENCES.exists() else {}
    for w in workloads:
        refs[w.name] = {}
        for index in range(POOL_SIZE):
            ds = prepare(w, index, {})
            ini = str(ds.ini)
            cfg = load_config(ds.ini)
            targets = select_targets(TripleStore.from_directory(
                cfg.dataset_dir), cfg)
            for what in ("learn", "eval"):
                if quiet_main([what, "--config", ini]) != 0:
                    print(f"error: {w.name} d{index} {what} failed",
                          file=sys.stderr)
                    return 1
            ev = observed(ds, "eval")
            refs[w.name][str(index)] = {
                "targets": len(targets), "rules": observed(ds, "learn"),
                **ev}
            print(f"{w.name} d{index}: mrr {ev['mrr']} "
                  f"queries {ev['queries']}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite bench/references.json from this "
                             "checkout's outputs")
    args = parser.parse_args(argv)
    # run.ini paths are relative to the repository root, like a hand run
    os.chdir(ROOT)
    from workloads import WORKLOADS
    try:
        import_program()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.record_references:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return record_references([WORKLOADS[n] for n in names])
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    record = run(workload, args.seed, args.seconds, bool(args.trace))
    out = WORK / "results" / \
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in report(workload, record):
        print(line)
    print(result_line(record))
    return 0 if not record["mismatches"] else 1


if __name__ == "__main__":
    sys.exit(main())
