"""Print one sha256 per output of the mlsvm pipeline.

    python3 tools/output_digest.py SRC_DIR > digest.txt

SRC_DIR is the ``src`` directory of a checkout; mlsvm is imported from there
and from nowhere else. Each line is ``name sha256``. Two checkouts give the
same outputs exactly when ``diff`` of their digests is empty, so a change
that must not alter results is checked by running this script on the
parent commit's ``src`` and on the change's.

The inputs are seeded synthetic data drawn here with numpy, so they do not
depend on the code under test. Covered: the datasets loaded from a headered
file whose named label column sits between ``?``-celled features, from a
sparse file, and from the first of them as ``write_dataset`` writes it; the
EM and mean imputers (fit and transform), ud_search outcomes with their
traces, each candidate's entry holding its score and the number of folds
trained for it (all of them, or fewer once it could no longer win; weighted
and unweighted, balanced down to a one-row minority), multilevel model files
with their level tables (direct and cluster-mode refinement), the graphs of
every level of the hierarchy those models are trained on, two approximate
k-NN graphs (over 21,000 points, and over 6,000 integer points, most with
more than k copies, so that nearly every list ends in a tie broken by
index), the CLI (``train`` for every method, ``predict`` on imputed rows
and, digesting the exit code with the output, on the raw ``?``-celled rows,
``impute``, ``evaluate`` and ``benchmark``), and each perfbench workload's
trained model and its score op's completed matrix, labels and margins
(training seed 0, held-out seed 1), using the ops in the ``perfbench``
directory next to SRC_DIR. The seconds column of a report table is dropped;
everything else is hashed byte for byte. It takes about 50 s on one core.
"""

import os

# one BLAS thread, as perfbench runs, so that sums are taken in one order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402


def sha(*parts) -> str:
    """Digest of arrays (dtype, shape and bytes), bytes, and reprs of the rest."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(("%s%s" % (part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def emit(name: str, digest: str) -> None:
    print("%s %s" % (name, digest), flush=True)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def drop_column(text: str, header: str) -> str:
    """The table text without the column named header (rows too short keep all)."""
    lines = text.splitlines()
    col = lines[0].split("\t").index(header)
    out = []
    for ln in lines:
        cells = ln.split("\t")
        if len(cells) > col and not ln.startswith("#"):
            del cells[col]
        out.append("\t".join(cells))
    return "\n".join(out)


# -- inputs -----------------------------------------------------------------

def draw(seed, n, d, n_pos, shift=1.0, rho=0.6, missing=0.0, labels=(1, 2)):
    """Two correlated Gaussian classes, n_pos rows of labels[0], shuffled.

    Returns features (NaN where missing), the missing mask and the labels.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD16]))
    cov = np.full((d, d), rho)
    np.fill_diagonal(cov, 1.0)
    y = np.array([labels[0]] * n_pos + [labels[1]] * (n - n_pos))[rng.permutation(n)]
    step = np.where(np.arange(d) % 2 == 0, shift, -shift)
    x = rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T
    x += np.where(y[:, None] == labels[0], step, -step)
    mask = rng.random((n, d)) < missing
    mask[mask.all(axis=1), 0] = False          # keep one observed cell per row
    return np.where(mask, np.nan, x), mask, y


def dataset(m, seed, n, d, n_pos, **kw):
    x, mask, y = draw(seed, n, d, n_pos, **kw)
    return m.Dataset(x, mask, y, tuple(dict.fromkeys(y.tolist())))


def write_csv(path, x, mask, y):
    with open(path, "w", encoding="utf-8") as fh:
        for row, miss, lab in zip(x.tolist(), mask.tolist(), y.tolist()):
            cells = ["?" if mi else repr(v) for v, mi in zip(row, miss)]
            fh.write(",".join(cells) + ",%d\n" % lab)


# -- library outputs --------------------------------------------------------

def loads(m, tmp):
    x, mask, y = draw(13, 400, 5, 120, missing=0.2, labels=(3, -7))
    named, sparse = os.path.join(tmp, "named.csv"), os.path.join(tmp, "data.sp")
    with open(named, "w", encoding="utf-8") as fh, \
            open(sparse, "w", encoding="utf-8") as sp:
        fh.write("f0,f1,outcome,f2,f3,f4\n")
        for row, miss, lab in zip(x.tolist(), mask.tolist(), y.tolist()):
            cells = ["?" if mi else repr(v) for v, mi in zip(row, miss)]
            fh.write(",".join(cells[:2] + [str(lab)] + cells[2:]) + "\n")
            sp.write(" ".join([str(lab)] + ["%d:%r" % (j + 1, v) for j, (v, mi)
                                            in enumerate(zip(row, miss)) if not mi])
                     + "\n")
    loaded = [m.load_dataset(named, label_column="outcome"),
              m.load_dataset(sparse, "sparse")]
    m.write_dataset(loaded[0], os.path.join(tmp, "written.csv"))
    loaded.append(m.load_dataset(os.path.join(tmp, "written.csv")))
    emit("data.load", sha(*[part for d in loaded for part in (
        d.features, d.missing, d.labels, d.class_names, d.feature_names)]))


def imputers(m):
    train = dataset(m, 1, 600, 6, 300, missing=0.15)
    test = dataset(m, 2, 300, 6, 150, missing=0.15)
    for reg in (None, 0.1):
        imp = m.RemImputer(m.RemConfig(regularization=reg)).fit(train)
        diag = imp.diagnostics_
        emit("rem.fit.reg=%s" % reg,
             sha(imp.completed_.features, imp.completed_.missing, imp.mean_,
                 imp.scatter_, diag.iterations, diag.final_change,
                 sorted(diag.ridge_counts.items())))
        done = imp.transform(test)
        emit("rem.transform.reg=%s" % reg, sha(done.features, done.missing))
    mean = m.MeanImputer().fit(train)
    for name, data in (("train", train), ("test", test)):
        done = mean.transform(data)
        emit("mean.transform.%s" % name, sha(mean.mean_, done.features, done.missing))


def searches(m):
    # n_pos 120 and 7 give five folds, 3 gives three, 1 scores by training fit
    for seed, n, n_pos in ((3, 240, 120), (4, 200, 7), (5, 150, 3), (6, 100, 1)):
        view = m.binary_view(dataset(m, seed, n, 3, n_pos, shift=0.6), 1)
        for weighted in (False, True):
            for center in (None, (1.0, 0.1)):
                out = m.ud_search(view, np.arange(n), weighted, m.UdConfig(),
                                  m.SolverConfig(), center=center, seed=seed)
                emit("ud.n=%d.pos=%d.weighted=%s.center=%s"
                     % (n, n_pos, weighted, center is not None),
                     sha(out.c, out.gamma, out.score, out.weights, out.trace,
                         out.evaluations))


def multilevel(m, tmp):
    data = dataset(m, 7, 1500, 4, 450, shift=0.5)
    view = m.binary_view(data, 1)
    knn, framework = m.KnnConfig(k=5), m.FrameworkConfig(coarsest_max=100, q_dt=250, seed=3)
    hierarchy = m.multilevel.build_hierarchy(view, knn, framework)
    emit("multilevel.hierarchy",
         sha(*[part for lvl in hierarchy.levels for g in (lvl.pos_graph, lvl.neg_graph)
               for part in (g.node_ids, g.neighbor_ids, g.neighbor_dists, g.k,
                            g.und_indptr, g.und_indices)]))
    for weighted in (False, True):
        model, report = m.train_multilevel(
            data, view, weighted, knn, m.UdConfig(internal_cv_folds=3),
            m.SolverConfig(), framework)
        path = os.path.join(tmp, "ml.model")
        m.save_any_model(model, path)
        emit("multilevel.weighted=%s.model" % weighted, sha(read_bytes(path)))
        emit("multilevel.weighted=%s.levels" % weighted,
             sha(drop_column(report.format_table(), "seconds")))


def knn_graph(m):
    x, _, _ = draw(8, 21_000, 5, 10_500, rho=0.0)
    data = m.Dataset(x, np.zeros(x.shape, dtype=bool), np.ones(x.shape[0], dtype=int), (1,))
    g = m.build_knn_graph(data, np.arange(x.shape[0]),
                          m.KnnConfig(k=10, mode="approximate"), seed=5)
    emit("knn.approximate.n=21000",
         sha(g.node_ids, g.neighbor_ids, g.neighbor_dists, g.k, g.und_indptr,
             g.und_indices))
    # rounded to integers, most points have more than k copies: every list
    # ends in a tie that the lower index must win
    x, _, _ = draw(12, 6_000, 3, 3_000, rho=0.0)
    x = np.round(x)
    data = m.Dataset(x, np.zeros(x.shape, dtype=bool), np.ones(x.shape[0], dtype=int), (1,))
    g = m.build_knn_graph(data, np.arange(x.shape[0]),
                          m.KnnConfig(k=10, mode="approximate"), seed=6)
    emit("knn.approximate.duplicated.n=6000",
         sha(g.node_ids, g.neighbor_ids, g.neighbor_dists, g.k, g.und_indptr,
             g.und_indices))


# -- CLI outputs ------------------------------------------------------------

def run_cli(m, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = m.cli.main(argv)
    if rc != 0:
        raise SystemExit("output_digest: mlsvm %s exited %d" % (" ".join(argv), rc))
    return out.getvalue()


def cli(m, tmp):
    def path(name):
        return os.path.join(tmp, name)

    write_csv(path("noisy.csv"), *draw(9, 900, 4, 270, shift=0.6, missing=0.1))
    write_csv(path("small.csv"), *draw(10, 300, 4, 90, shift=0.6))
    x3, mask3, y3 = draw(11, 300, 3, 100, shift=1.5)
    y3[np.flatnonzero(y3 == 2)[::2]] = 3
    write_csv(path("three.csv"), x3, mask3, y3)

    for method in ("rem", "mean"):
        run_cli(m, ["impute", "--in", path("noisy.csv"), "--out", path(method + ".csv"),
                    "--method", method, "--report", path(method + ".txt")])
        emit("cli.impute.%s" % method,
             sha(read_bytes(path(method + ".csv")), read_bytes(path(method + ".txt"))))

    runs = {"svm-fixed": ["--method", "svm", "--C", "5", "--gamma", "0.3"]}
    for method in ("svm", "wsvm", "mlsvm", "mlwsvm"):
        runs[method] = ["--method", method, "--ud-folds", "3", "--coarsest-max", "80",
                         "--Qdt", "300", "--report", path(method + ".report")]
    for name, flags in runs.items():
        model = path(name + ".model")
        run_cli(m, ["train", "--in", path("noisy.csv"), "--model", model, "--seed", "2"]
                + flags)
        emit("cli.train.%s.model" % name, sha(read_bytes(model)))
        if "--report" in flags:
            text = read_bytes(flags[-1]).decode()
            if name.startswith("ml"):
                text = drop_column(text, "seconds")
            emit("cli.train.%s.report" % name, sha(text))
        run_cli(m, ["predict", "--in", path("rem.csv"), "--model", model,
                    "--out", path(name + ".pred")])
        emit("cli.predict.%s" % name, sha(read_bytes(path(name + ".pred"))))
        # raw ?-celled rows: a model that cannot take them exits 1, writing nothing
        raw = path(name + ".raw.pred")
        with contextlib.redirect_stderr(io.StringIO()):
            rc = m.cli.main(["predict", "--in", path("noisy.csv"), "--model", model,
                             "--out", raw])
        emit("cli.predict.%s.raw" % name,
             sha(rc, read_bytes(raw) if os.path.exists(raw) else b""))

    for name, argv in (
            ("mlwsvm", ["--in", path("noisy.csv"), "--method", "mlwsvm",
                        "--coarsest-max", "80", "--Qdt", "300"]),
            ("wsvm.all-classes", ["--in", path("three.csv"), "--method", "wsvm",
                                  "--imputer", "none", "--all-classes"])):
        stdout = run_cli(m, ["evaluate", "--folds", "3", "--ud-folds", "3", "--seed", "1",
                             "--out", path("eval.txt")] + argv)
        emit("cli.evaluate.%s" % name, sha(stdout, read_bytes(path("eval.txt"))))

    stdout = run_cli(m, ["benchmark", "--in", path("small.csv"), "--ratios", "0,0.1",
                         "--methods", "svm,wsvm,mlsvm,mlwsvm", "--folds", "2",
                         "--ud-folds", "3", "--coarsest-max", "60", "--Qdt", "150",
                         "--seed", "1", "--out", path("bench.txt")])
    emit("cli.benchmark",
         sha(drop_column(stdout, "seconds"),
             drop_column(read_bytes(path("bench.txt")).decode(), "seconds")))


# -- perfbench workloads ----------------------------------------------------

def perfbench(m, root, tmp):
    sys.dont_write_bytecode = True      # leave the perfbench directory as it was
    sys.path.insert(0, os.path.join(root, "perfbench"))
    bench = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    for name, w in workloads.WORKLOADS.items():
        inputs = workloads.make_inputs(w, 1, 0, os.path.join(tmp, name))
        trained = bench.train_op(m, w, inputs, 0)
        path = os.path.join(tmp, name, "model")
        m.save_any_model(trained.model, path)
        emit("perfbench.%s.model" % name, sha(read_bytes(path)))
        completed, labels, margins = bench.score_op(m, inputs, trained)
        emit("perfbench.%s.score" % name, sha(completed.features, labels, margins))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="the src directory of the checkout to digest")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import mlsvm
    import mlsvm.cli
    if not os.path.abspath(mlsvm.__file__).startswith(src + os.sep):
        raise SystemExit("output_digest: imported mlsvm from %s, not from %s"
                         % (mlsvm.__file__, src))
    warnings.simplefilter("ignore")      # small-class fold warnings are expected
    with tempfile.TemporaryDirectory() as tmp:
        loads(mlsvm, tmp)
        imputers(mlsvm)
        searches(mlsvm)
        multilevel(mlsvm, tmp)
        knn_graph(mlsvm)
        cli(mlsvm, tmp)
        perfbench(mlsvm, os.path.dirname(src), tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
