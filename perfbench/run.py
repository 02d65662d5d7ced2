"""Impute -> train -> score benchmark for the mlsvm package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flat-wsvm --seed 1 --seconds 10 --trace 0

A run draws one workload's inputs and writes them as files, then repeats
whole rounds on them until --seconds have passed (at least one round). A
round is one train op followed by SCORE_REPEATS score ops with its model:

  train op  load the training file, fit the EM imputer, train the model
            (multilevel weighted SVM, or uniform-design search plus one
            weighted SVM for the flat workload)
  score op  load the held-out file, complete it with the training
            statistics, predict every row

--seed draws the held-out split. --train-seed (default 0) draws the training
split and seeds the program, so that the trained model, and with it the cost
of every op, is the same in every run (README.md says why).

Times are CPU seconds of this process (time.process_time). The program runs
on one thread, so on an idle machine they equal wall time; on a shared host
they leave out the time the process waits for a core, which moved wall-clock
op times by 40% of the median between runs of the same code. Wall times are
kept in the log and in the traced run's trace.* metrics.

Every op's outputs are checked against computations made here (checks.py);
a failed check counts the op as failed. The last line of standard output is
one JSON object. With --trace 0 it holds the end-to-end metrics; with
--trace 1 the program's public functions are wrapped in spans and the
per-layer metrics are reported instead.
"""

import os

# Pin BLAS to one thread before numpy loads, for run-to-run stability.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import POSITIVE, WORKLOADS, make_inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 5
SCORE_REPEATS = 5          # score ops per round, all with the round's model
OPS_PER_ROUND = 1 + SCORE_REPEATS
MARGIN_SAMPLE = 256        # held-out rows whose margins are recomputed
RECALL_SAMPLE = 1000       # graph nodes checked against brute force
COARSEST_MAX = 500
Q_DT = 1000
ML_CV_FOLDS = 3


def import_program():
    """Import mlsvm from the checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mlsvm", "__init__.py")):
        raise SystemExit("perfbench: %s/mlsvm not found; run from the root of a "
                         "checkout of the repository" % src)
    sys.path.insert(0, src)
    import mlsvm
    if not os.path.abspath(mlsvm.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: imported mlsvm from %s, not from %s"
                         % (mlsvm.__file__, src))
    return mlsvm


@dataclass
class Trained:
    imputer: object
    completed: object
    model: object
    report: object


def train_op(mlsvm, w, inputs, seed):
    data = mlsvm.load_dataset(inputs.train_path)
    imputer = mlsvm.RemImputer().fit(data)
    full = imputer.completed_
    view = mlsvm.binary_view(full, POSITIVE)
    if w.multilevel:
        model, report = mlsvm.train_multilevel(
            full, view, True, mlsvm.KnnConfig(),
            mlsvm.UdConfig(internal_cv_folds=ML_CV_FOLDS), mlsvm.SolverConfig(),
            mlsvm.FrameworkConfig(coarsest_max=COARSEST_MAX, q_dt=Q_DT, seed=seed))
    else:
        outcome = mlsvm.ud_search(view, np.arange(full.n_rows), True, mlsvm.UdConfig(),
                                  mlsvm.SolverConfig(), seed=seed)
        model = mlsvm.train_svm(view, outcome.weights, mlsvm.KernelParams(outcome.gamma),
                                mlsvm.SolverConfig())
        report = None
    return Trained(imputer, full, model, report)


def score_op(mlsvm, inputs, trained):
    data = mlsvm.load_dataset(inputs.test_path)
    completed = trained.imputer.transform(data)
    labels, margins = mlsvm.predict_model(trained.model, completed.features)
    return completed, labels, margins


def check_train(mlsvm, w, inputs, trained, oracle_rmse):
    split = inputs.train
    completed = trained.completed.features
    errors = checks.check_pass_through(completed, split.truth, split.missing, "training")
    value = checks.rmse(completed, split.truth, split.missing)
    errors += checks.check_imputation_error(value, oracle_rmse)
    if w.multilevel:
        sizes = [row.n_pos + row.n_neg for row in reversed(trained.report.levels)]
        errors += checks.check_hierarchy(sizes, w.n_train, COARSEST_MAX)
    else:
        # the flat model is trained on every row, so KKT covers the whole set
        y = np.where(split.labels > 0, 1.0, -1.0)
        found, worst = checks.check_dual_solution(trained.model, completed, y,
                                                  mlsvm.SolverConfig().kkt_tolerance)
        errors += found
        print("perfbench: largest KKT violation %.3g" % worst, file=sys.stderr)
    return errors, value


def check_score(w, inputs, trained, scored, sample):
    completed, labels, margins = scored
    split = inputs.test
    errors = checks.check_pass_through(completed.features, split.truth, split.missing,
                                       "held-out")
    errors += checks.check_margins(trained.model, completed.features, labels, margins,
                                   sample)
    value = checks.gmean(split.labels, labels)
    errors += checks.check_gmean(value, split.labels, w.delta, w.gmean_floor_gap)
    return errors, value


@dataclass
class Round:
    train_s: float = None            # wall
    train_cpu_s: float = None
    rmse: float = None
    score_s: list = field(default_factory=list)
    score_cpu_s: list = field(default_factory=list)
    gmean: list = field(default_factory=list)
    failed: int = 0


def timed(fn):
    """fn(), its wall time and its CPU time."""
    c0, t0 = time.process_time(), time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0, time.process_time() - c0


def run_round(mlsvm, w, inputs, seed, oracle_rmse, sample, tracer):
    """One train op, then SCORE_REPEATS score ops with its model; each op is
    timed, then checked."""
    out = Round()

    def op(name, fn):
        if tracer is None:
            return fn()
        with tracer.span(name):
            return fn()

    try:
        trained, out.train_s, out.train_cpu_s = timed(
            lambda: op("op.train", lambda: train_op(mlsvm, w, inputs, seed)))
    except Exception:
        traceback.print_exc()
        out.failed = OPS_PER_ROUND      # no score op can run without a model
        return out
    errors, out.rmse = check_train(mlsvm, w, inputs, trained, oracle_rmse)
    report_errors("train", errors)
    out.failed += bool(errors)
    for _ in range(SCORE_REPEATS):
        try:
            scored, wall, cpu = timed(
                lambda: op("op.score", lambda: score_op(mlsvm, inputs, trained)))
            out.score_s.append(wall)
            out.score_cpu_s.append(cpu)
        except Exception:
            traceback.print_exc()
            out.failed += 1
            continue
        errors, gmean = check_score(w, inputs, trained, scored, sample)
        out.gmean.append(gmean)
        report_errors("score", errors)
        out.failed += bool(errors)
    return out


def report_errors(op_name, errors):
    for e in errors:
        print("perfbench: %s op check failed: %s" % (op_name, e), file=sys.stderr)


def warm_up():
    """Load BLAS and LAPACK code paths before the first timed op."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    b = a @ a.T + 256.0 * np.eye(256)
    np.linalg.solve(b, a)
    np.exp(a)


def benchmark_units(kind):
    """Metric names and units of one kind ("end_to_end" or "per_layer")."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the held-out split")
    parser.add_argument("--train-seed", type=int, default=0,
                        help="draws the training split and seeds the program")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mlsvm = import_program()
    w = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "work", "%s-%d-%d" % (w.name, args.train_seed, args.seed))
    try:
        return run(mlsvm, w, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass      # another run's inputs are still there


def run(mlsvm, w, args, workdir):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs, _, cpu = timed(lambda: make_inputs(w, args.seed, args.train_seed,
                                                   workdir))
        setup_times.append(cpu)

    # reference values, computed once per run outside the timed ops
    split = inputs.train
    mean, cov = checks.mixture_moments(inputs.mean_pos, inputs.mean_neg, inputs.cov,
                                       w.minority_frac)
    oracle = checks.oracle_impute(np.where(split.missing, 0.0, split.truth),
                                  split.missing, mean, cov)
    oracle_rmse = checks.rmse(oracle, split.truth, split.missing)
    check_rng = np.random.default_rng(np.random.SeedSequence([args.seed, w.tag, 2]))
    sample = check_rng.choice(w.n_test, size=MARGIN_SAMPLE, replace=False)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(mlsvm)
    warm_up()
    rounds = []
    t_begin = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - t_begin < args.seconds:
            rounds.append(run_round(mlsvm, w, inputs, args.train_seed, oracle_rmse,
                                    sample, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()

    good = [r for r in rounds if r.failed == 0]
    if not good:
        print("perfbench: no round completed without a failed op", file=sys.stderr)
        return 1
    # the program is deterministic, so every op must repeat its outputs
    gmean, rmse = good[0].gmean[0], good[0].rmse
    correct = all(r.rmse == rmse and all(g == gmean for g in r.gmean) for r in good)
    print("perfbench: test G-mean %.4f (Bayes %.4f), imputation RMSE %.4f "
          "(linear-MMSE oracle %.4f)" % (gmean, checks.bayes_gmean(w.delta), rmse,
                                         oracle_rmse), file=sys.stderr)
    print("perfbench: set-ups %s CPU s"
          % " ".join("%.3f" % t for t in setup_times), file=sys.stderr)
    for r in rounds:
        if r.train_s is None:
            continue
        print("perfbench: train op %.3f s (%.3f CPU s), score ops %s s (%s CPU s)"
              % (r.train_s, r.train_cpu_s, " ".join("%.3f" % t for t in r.score_s),
                 " ".join("%.3f" % t for t in r.score_cpu_s)), file=sys.stderr)
    if tracer is None:
        kind = "end_to_end"
        values = {
            "setup_s": statistics.median(setup_times),
            "train_cpu_s": statistics.median(r.train_cpu_s for r in good),
            "score_rows_per_cpu_s": statistics.median(
                w.n_test / t for r in good for t in r.score_cpu_s),
            "test_gmean": gmean,
            "impute_rmse": rmse,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        kind = "per_layer"
        values = traced_values(tracer, args, w, good)
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in benchmark_units(kind).items()}
    print(json.dumps({"correct": bool(correct), "attempted": OPS_PER_ROUND * len(rounds),
                      "failed": sum(r.failed for r in rounds), "metrics": metrics}))
    return 0


def traced_values(tracer, args, w, good):
    """Per-layer values from the first traced round; op times from every
    round."""
    self_time = tracer.self_times()
    ops = [s for s in tracer.spans if s.parent is None]
    first = [s for s in tracer.spans if s.id < ops[2].id] if len(ops) > 2 \
        else tracer.spans
    values = spans.layer_metrics(first, self_time)
    recall_rng = np.random.default_rng(np.random.SeedSequence([args.seed, w.tag, 3]))
    values["knn.recall"] = checks.graph_recall(
        [s.info for s in first if s.name == "knn.build"], RECALL_SAMPLE, recall_rng)
    for s in ops[:2]:
        # the op span's own self time is benchmark glue outside every layer
        values["trace.%s_attributed_frac" % s.name.split(".", 1)[1]] = \
            1.0 - self_time[s.id] / (s.end - s.start)
    values["trace.spans"] = len(first)
    values["trace.train_s"] = statistics.median(r.train_s for r in good)
    values["trace.score_rows_per_s"] = statistics.median(
        w.n_test / t for r in good for t in r.score_s)
    values["trace.train_cpu_s"] = statistics.median(r.train_cpu_s for r in good)
    values["trace.score_rows_per_cpu_s"] = statistics.median(
        w.n_test / t for r in good for t in r.score_cpu_s)
    os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
    tracer.dump(os.path.join(HERE, "traces", "%s-%d-%d.json"
                            % (w.name, args.train_seed, args.seed)))
    return values


if __name__ == "__main__":
    sys.exit(main())
