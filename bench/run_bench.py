"""stormstack benchmark: three workloads through the real CLI stages.

    python3 bench/run_bench.py --workload ingest --seed 1 --seconds 12 --trace 0

Run it from the repository root; it imports the package from `src/`.
Every stage (generate, featurize, train, evaluate, predict, report) runs
in its own `python -m stormstack` process, as a user runs it.  A run has
three rounds, each of:

* set-up in a fresh directory (setup_s is the median of the three): an
  import warm-up, then the stages that make the workload's inputs;
* the workload's own stages, repeated for a third of --seconds;
* the remaining stages once, so every end-to-end metric is measured on
  every workload.

Every stage call is one attempted operation.  It fails on a non-zero
exit, on a failed output check, or when an artifact's sha256 differs from
the one the same stage wrote earlier in the run from the same inputs.
With --trace 1 the stages run once untraced and once under
`bench/tracer.py`, and the per-layer metrics come from the traced pass.
The last line of stdout is the JSON result; the line before it holds the
environment and the per-stage samples.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROUNDS = 3
RUN_LIMIT_S = 170.0
MODEL_NAME = "Kalman-Conv BiLSTM with Attention"
STEPS = 12                      # data.steps default
CONV_STEPS = STEPS - 2 - 2      # two valid 3-wide convolutions

# Shared by every workload: the default data shape and architecture and
# 300 events.  With the default patience of 10, training reaches the
# 12-epoch cap unless its best validation loss comes in the first epoch,
# so epochs_run, and with it train_s, does not vary with the seed.
CONFIG = {
    "data.samples_per_class": 100,
    "data.fractions": "0.6,0.2,0.2",
    "train.max_epochs": 12,
}
TINY_CONFIG = {
    "data.samples_per_class": 10,
    "data.fractions": "0.6,0.2,0.2",
    "train.max_epochs": 2,
    "train.patience": 2,
}

# name -> (set-up stages, repeated stages, stages run once per round)
WORKLOADS = {
    "ingest": ((), ("generate", "featurize"), ("train", "evaluate", "predict", "report")),
    "fit": (("generate", "featurize"), ("train",), ("evaluate", "predict", "report")),
    "score": (("generate", "featurize", "train"), ("evaluate", "predict", "report"), ()),
}

OUTPUTS = {
    "generate": ("events.csv", "volumes.csv"),
    "featurize": ("train.csv", "val.csv", "test.csv"),
    "train": ("model.ckpt", "train_log.csv"),
    "evaluate": ("metrics_model.csv", "metrics_model.txt", "metrics_knn.csv", "metrics_knn.txt"),
    "predict": ("predictions.csv",),
    "report": ("report.txt",),
}

PREDICT_INPUT = "all.csv"


class StageFailed(Exception):
    pass


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sample_ids(path):
    """Sample ids of a sequence file, in file order."""
    ids = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            sample = line.split(",", 1)[0]
            if not ids or ids[-1] != sample:
                ids.append(sample)
    return ids


def write_predict_input(rep_dir):
    """Concatenate the three splits into one sequence file for predict."""
    with open(os.path.join(rep_dir, PREDICT_INPUT), "w") as out:
        for i, split in enumerate(("train", "val", "test")):
            with open(os.path.join(rep_dir, "run", f"{split}.csv")) as fh:
                header = fh.readline()
                if i == 0:
                    out.write(header)
                shutil.copyfileobj(fh, out)


def check_predictions(rep_dir):
    """Problems with predictions.csv: one row per input sample, in input
    order, with finite probabilities that sum to 1 and argmax labels."""
    expected = sample_ids(os.path.join(rep_dir, PREDICT_INPUT))
    with open(os.path.join(rep_dir, "run", "predictions.csv")) as fh:
        header = fh.readline().strip()
        rows = [line.rstrip("\n").split(",") for line in fh]
    if header != "sample_id,label,p_tornado,p_hail,p_wind,predicted":
        return [f"predictions.csv header is {header!r}"]
    if [r[0] for r in rows] != expected:
        return [f"predictions.csv has {len(rows)} rows, not one per each of {len(expected)} samples"]
    for row in rows:
        probs = [float(v) for v in row[2:5]]
        if not all(math.isfinite(p) for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            return [f"predictions.csv row {row[0]} has probabilities {probs}"]
        if int(row[5]) != probs.index(max(probs)):
            return [f"predictions.csv row {row[0]} predicts {row[5]} for {probs}"]
    return []


def check_report(rep_dir):
    with open(os.path.join(rep_dir, "run", "report.txt")) as fh:
        names = [line.split("  ")[0].strip() for line in fh.readlines()[1:]]
    missing = [n for n in (MODEL_NAME, "KNN") if n not in names]
    return [f"report.txt does not name {missing}"] if missing else []


CHECKS = {"predict": check_predictions, "report": check_report}


def read_metrics_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        row = fh.readline().strip().split(",")
    return {key: value for key, value in zip(header, row)}


def read_val_accuracy(path):
    with open(path) as fh:
        next(fh)
        return [float(line.strip().split(",")[3]) for line in fh]


class Bench:
    """Runs stage processes and keeps the tallies of one benchmark run."""

    def __init__(self, root, work, config, deadline):
        self.work = work
        self.config = config
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("STORMSTACK_THREADS", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                        if os.environ.get("PYTHONPATH") else "")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.walls = {}        # stage -> wall seconds of every call
        self.peak_rss_mb = 0.0  # largest peak RSS of a stage call outside set-up
        self.digests = {}      # (stage, file) -> first sha256 seen

    def spawn(self, argv, cwd, log_name):
        """Run one process to completion; returns (exit code, wall s, peak RSS MB)."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise StageFailed(f"out of time before {' '.join(argv[1:4])}")
        with open(os.path.join(cwd, log_name), "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log, stderr=log)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6

    def new_dir(self, name):
        rep_dir = os.path.join(self.work, name)
        os.makedirs(rep_dir)
        with open(os.path.join(rep_dir, "run.cfg"), "w") as fh:
            for key, value in self.config.items():
                fh.write(f"{key} = {value}\n")
        return rep_dir

    def warm_up(self, rep_dir):
        code, _, _ = self.spawn([sys.executable, "-c", "import stormstack.cli"], rep_dir, "warmup.log")
        if code != 0:
            raise StageFailed(f"importing stormstack.cli exited {code}")

    def stage(self, rep_dir, stage, in_setup=False, spans=None):
        args = [stage, "--config", "run.cfg", "--out", "run"]
        if stage == "evaluate":
            args += ["--baselines", "knn"]
        elif stage == "predict":
            args += ["--input", PREDICT_INPUT]
        if spans is None:
            argv = [sys.executable, "-m", "stormstack"] + args
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), spans] + args
        self.attempted += 1
        code, wall, rss = self.spawn(argv, rep_dir, f"{stage}.log")
        if code != 0:
            self.failed += 1
            raise StageFailed(f"{stage} exited {code}; see {rep_dir}/{stage}.log")
        self.walls.setdefault(stage, []).append(wall)
        if not in_setup:
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
        problems = []
        for name in OUTPUTS[stage] + ("run_config.txt",):
            digest = sha256(os.path.join(rep_dir, "run", name))
            first = self.digests.setdefault((stage, name), digest)
            if digest != first:
                problems.append(f"{name} from {stage} differs from an earlier run of the same seed")
        problems += CHECKS[stage](rep_dir) if stage in CHECKS else []
        if problems:
            self.failed += 1
            self.problems += problems
        if stage == "featurize":
            write_predict_input(rep_dir)
        return wall


def run_timed(bench, setup, loop, tail, seconds):
    """ROUNDS rounds of: one set-up in a fresh directory, the repeated
    stages for a share of the seconds, the remaining stages once.  The
    repeats and the remaining stages run in the first set-up's directory;
    spreading every stage's samples over the whole run keeps its median
    from resting on one stretch of machine speed."""
    setup_s = []
    reps = 0
    main_dir = None
    for round_index in range(ROUNDS):
        start = time.perf_counter()
        rep_dir = bench.new_dir(f"setup{round_index}")
        bench.warm_up(rep_dir)
        for stage in setup:
            bench.stage(rep_dir, stage, in_setup=True)
        setup_s.append(time.perf_counter() - start)
        main_dir = main_dir or rep_dir
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / ROUNDS or reps == round_index:
            for stage in loop:
                bench.stage(main_dir, stage)
            reps += 1
        for stage in tail:
            bench.stage(main_dir, stage)
    return main_dir, {"setup_s": setup_s, "reps": reps}


def e2e_metrics(bench, rep_dir, setup_s):
    run = os.path.join(rep_dir, "run")
    events = 3 * bench.config["data.samples_per_class"]
    n_train = len(sample_ids(os.path.join(run, "train.csv")))
    n_predict = len(sample_ids(os.path.join(rep_dir, PREDICT_INPUT)))
    epochs = len(read_val_accuracy(os.path.join(run, "train_log.csv")))
    model = read_metrics_csv(os.path.join(run, "metrics_model.csv"))
    knn = read_metrics_csv(os.path.join(run, "metrics_knn.csv"))
    wall = {stage: statistics.median(samples) for stage, samples in bench.walls.items()}
    return {
        "setup_s": statistics.median(setup_s),
        "generate_events_per_s": events / wall["generate"],
        "featurize_events_per_s": events / wall["featurize"],
        "train_s": wall["train"],
        "train_samples_per_s": epochs * n_train / wall["train"],
        "epochs_run": epochs,
        "evaluate_s": wall["evaluate"],
        "predict_samples_per_s": n_predict / wall["predict"],
        "test_accuracy": float(model["accuracy"]),
        "tornado_f1": float(model["f1"]),
        "knn_accuracy": float(knn["accuracy"]),
        "peak_rss_mb": bench.peak_rss_mb,
    }


def run_traced(bench, stages, loop):
    """Every stage once untraced and then once traced, in two directories
    that advance in step, so both passes see the same stretch of machine
    speed; returns the per-layer metrics of the traced pass."""
    plain_dir, rep_dir = bench.new_dir("untraced"), bench.new_dir("traced")
    bench.warm_up(plain_dir)
    passes = [0.0, 0.0]
    for stage in stages:
        passes[0] += bench.stage(plain_dir, stage)
        passes[1] += bench.stage(rep_dir, stage, spans=os.path.join(rep_dir, f"{stage}.spans.json"))
    traces = []
    for stage in stages:
        with open(os.path.join(rep_dir, f"{stage}.spans.json")) as fh:
            traces.append(json.load(fh))
    val_accuracy = read_val_accuracy(os.path.join(rep_dir, "run", "train_log.csv"))
    values, problems = layers.layer_metrics(
        traces, loop, 3 * bench.config["data.samples_per_class"], STEPS, CONV_STEPS, val_accuracy)
    if problems:
        bench.failed += 1
        bench.problems += problems
    values["trace.overhead_s"] = passes[1] - passes[0]
    values["trace.overhead_ratio"] = (passes[1] - passes[0]) / passes[0]
    return values, {"untraced_s": passes[0], "traced_s": passes[1]}


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes
    import numpy  # noqa: F401  loads the BLAS library
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                get_threads = getattr(handle, symbol)
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                return get_threads()
    return None


def environment(root):
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for folder, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "STORMSTACK_THREADS")},
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="30 events and 2 epochs, for the harness self-check")
    parser.add_argument("--keep", action="store_true", help="keep the work directory")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stormstack", "cli.py")):
        print("run from the repository root: src/stormstack/cli.py not found", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    config = dict(TINY_CONFIG if args.tiny else CONFIG, seed=args.seed)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(root, work, config, deadline)
    setup, loop, tail = WORKLOADS[args.workload]
    metrics, detail = {}, {}
    try:
        if args.trace:
            values, detail = run_traced(bench, setup + loop + tail, loop)
        else:
            rep_dir, detail = run_timed(bench, setup, loop, tail, args.seconds)
            values = e2e_metrics(bench, rep_dir, detail["setup_s"])
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    except StageFailed as exc:
        bench.problems.append(str(exc))
    finally:
        if args.keep:
            detail["work"] = work
        else:
            shutil.rmtree(work, ignore_errors=True)
    detail.update(walls=bench.walls, digests={f"{s}/{f}": d for (s, f), d in bench.digests.items()},
                  problems=bench.problems)
    print(json.dumps({"environment": environment(root), "detail": detail}))
    correct = not bench.problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(bench.attempted, 1),
                      "failed": bench.failed if correct else max(bench.failed, 1),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
