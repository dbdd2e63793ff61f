"""Acceptance gate: nine release criteria, one verdict line each.

Each test prints a [PASS]/[FAIL] line with the measured numbers before
asserting, so `pytest tests/test_acceptance.py -v -s` reads as a
checklist.  Tolerances are deliberate: oracle comparisons at 1e-12,
gradient checks at 1e-5 per op and 1e-4 for the assembled model, metric
fixtures at 1e-6, and wall-clock budgets on the two long runs.
"""

import hashlib
import math
import pathlib
import platform
import time
import warnings

import numpy as np
import pytest

from stormstack.config import RunConfig
from stormstack import cli
from stormstack.dataio import save_checkpoint, write_predictions, write_sequences
from stormstack.features import (
    SequenceSet,
    balance,
    build_sample,
    class_counts,
    extract_shsr_stats,
    smooth_series,
    split,
)
from stormstack.metrics import confusion, evaluate, metrics, multiclass_accuracy
from stormstack.model import (
    KNNClassifier,
    ModelConfig,
    bilstm_forward,
    forward,
    forward_batch,
    init_params,
    lstm_cell,
    lstm_forward,
    predict_class,
    scaled_dot_attention,
    standardize_inputs,
)
from stormstack.synthetic import generate_synthetic
from stormstack.tensor import (
    Tensor,
    bias_add,
    channel_affine,
    concat,
    conv1d,
    grad_check,
    matmul,
    mul,
    nll_loss,
    relu,
    scale,
    sigmoid,
    softmax,
    sum_all,
    swap_last_axes,
    tanh,
    time_mean,
    time_slice,
)
from stormstack.training import train


def _verdict(ok, label, detail=""):
    word = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{word}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _rand(rng, shape):
    return Tensor(rng.standard_normal(shape))


def _op_gradient_sweep(rng, step):
    """Worst grad_check error across every differentiable op."""
    worst = 0.0

    def check(f, point):
        nonlocal worst
        worst = max(worst, grad_check(f, point, step))

    w = _rand(rng, (4, 3))
    x = _rand(rng, (5, 4))
    check(lambda t: sum_all(matmul(t, w)), x)
    check(lambda t: sum_all(matmul(x, t)), w)

    cw = _rand(rng, (3, 2, 4))
    cb = _rand(rng, (4,))
    cx = _rand(rng, (1, 7, 2))
    check(lambda t: sum_all(conv1d(t, cw, cb)), cx)
    check(lambda t: sum_all(conv1d(cx, t, cb)), cw)
    check(lambda t: sum_all(conv1d(cx, cw, t)), cb)
    check(lambda t: sum_all(conv1d(t, cw, cb, padding="same")), cx)

    p = _rand(rng, (6,))
    check(lambda t: sum_all(relu(t)), p)
    check(lambda t: sum_all(sigmoid(t)), p)
    check(lambda t: sum_all(tanh(t)), p)
    check(lambda t: sum_all(mul(t, t)), p)

    s = _rand(rng, (2, 5))
    other = _rand(rng, (2, 3))
    check(lambda t: sum_all(concat([t, other])), s)
    check(lambda t: sum_all(softmax(mul(t, t))), s)
    check(lambda t: sum_all(bias_add(s, t)), _rand(rng, (5,)))
    check(lambda t: sum_all(scale(t, -1.7)), s)
    shift = rng.standard_normal(5)
    sc = rng.standard_normal(5) + 3.0
    check(lambda t: sum_all(channel_affine(t, shift, sc)), s)

    seq = _rand(rng, (2, 4, 3))
    check(lambda t: sum_all(time_mean(t)), seq)
    check(lambda t: sum_all(time_slice(t, 2)), seq)
    check(lambda t: sum_all(swap_last_axes(t)), seq)

    logits = _rand(rng, (3, 4))
    labels = [int(v) for v in rng.integers(0, 4, size=3)]
    check(lambda t: nll_loss(softmax(t), labels), logits)
    return worst


def test_gradient_suite():
    start = time.monotonic()
    step = 1e-5
    worst_op = 0.0
    worst_model = 0.0
    for trial in range(20):
        rng = np.random.default_rng(4000 + trial)
        worst_op = max(worst_op, _op_gradient_sweep(rng, step))

        cfg = ModelConfig(steps=6, input_channels=4, conv_layers=((3, 2),),
                          lstm_hidden=4, attention_heads=2, attention_dim=4,
                          seed=trial)
        params = init_params(cfg)
        x = _rand(rng, (2, 6, 4))
        labels = [int(v) for v in rng.integers(0, 3, size=2)]

        def wrt_input(t):
            return nll_loss(forward_batch(t, params, cfg), labels)

        worst_model = max(worst_model, grad_check(wrt_input, x, step))
        names = sorted(params)
        for name in names[trial::20] + names[trial + 10::20]:
            def wrt_param(t, name=name):
                return nll_loss(forward_batch(x, dict(params, **{name: t}), cfg), labels)
            worst_model = max(worst_model, grad_check(wrt_param, params[name], step))
    elapsed = time.monotonic() - start
    ok = worst_op < 1e-5 and worst_model < 1e-4 and elapsed < 60.0
    _verdict(ok, "gradient suite",
             f"op error {worst_op:.2e}, model error {worst_model:.2e}, {elapsed:.1f}s")


def test_kalman_oracle():
    def reference(obs, q, r):
        out = [obs[0]]
        estimate, cov = obs[0], r
        for z in obs[1:]:
            cov += q
            gain = cov / (cov + r)
            estimate = estimate + gain * (z - estimate)
            cov = (1.0 - gain) * cov
            out.append(estimate)
        return out

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        obs = rng.standard_normal(n) * 10.0
        q = float(rng.uniform(0.0, 2.0))
        r = float(rng.uniform(0.05, 5.0))
        got = smooth_series(obs.reshape(-1, 1), q, r)[:, 0]
        want = reference(list(obs), q, r)
        worst = max(worst, float(np.abs(got - np.array(want)).max()))

    fixture = smooth_series(np.array([[0.0], [1.0]]), 0.1, 1.0)
    fixture_err = abs(fixture[1, 0] - 11.0 / 21.0)
    ok = worst < 1e-12 and fixture_err < 1e-12
    _verdict(ok, "kalman scalar oracle",
             f"max dev {worst:.2e}, worked-example dev {fixture_err:.2e}")


def test_equation_fidelity():
    failures = []

    # all-zero gates: every gate sits at 1/2, candidate at 0
    gates = {f"{kind}{g}": Tensor(np.zeros((2, 1)) if kind == "w" else np.zeros(1))
             for kind in ("w", "b") for g in "fico"}
    h, c = lstm_cell(Tensor([[5.0]]), Tensor([[0.0]]), Tensor([[2.0]]), gates)
    if abs(c.array[0, 0] - 1.0) >= 1e-12:
        failures.append("lstm cell state")
    if abs(h.array[0, 0] - 0.5 * math.tanh(1.0)) >= 1e-12:
        failures.append("lstm hidden state")

    # bilstm must equal the two unidirectional runs, concatenated
    rng = np.random.default_rng(8)
    params = {}
    for d in ("fwd", "bwd"):
        for g in "fico":
            params[f"lstm_{d}_w{g}"] = Tensor(rng.standard_normal((7, 4)) * 0.4)
            params[f"lstm_{d}_b{g}"] = Tensor(rng.standard_normal(4) * 0.1)
    x = Tensor(rng.standard_normal((2, 6, 3)))
    out = bilstm_forward(x, params).array
    fwd = lstm_forward(x, params).array
    renamed = {k.replace("_bwd_", "_fwd_"): v for k, v in params.items() if "_bwd_" in k}
    rev = lstm_forward(Tensor(x.array[:, ::-1, :].copy()), renamed).array
    if not np.array_equal(out[..., :4], fwd):
        failures.append("bilstm forward half")
    if not np.array_equal(out[..., 4:], rev[:, ::-1, :]):
        failures.append("bilstm backward half")

    # attention weight rows are a distribution: feed an identity V so
    # the output rows ARE the rows of softmax(QK^T / sqrt(d))
    q = Tensor(rng.standard_normal((5, 3)))
    k = Tensor(rng.standard_normal((5, 3)))
    weights = scaled_dot_attention(q, k, Tensor(np.eye(5))).array
    if np.abs(weights.sum(axis=1) - 1.0).max() >= 1e-12:
        failures.append("attention row sums")
    v_single = rng.standard_normal((1, 4))
    single = scaled_dot_attention(Tensor(rng.standard_normal((1, 3))),
                                  Tensor(rng.standard_normal((1, 3))),
                                  Tensor(v_single)).array
    if not np.array_equal(single, v_single):
        failures.append("T=1 attention identity")

    _verdict(not failures, "recurrence and attention fidelity",
             "all fixtures bit-tight" if not failures else ", ".join(failures))


def test_metric_oracle():
    rng = np.random.default_rng(55)
    exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        preds = [int(v) for v in rng.integers(0, 3, size=n)]
        truth = [int(v) for v in rng.integers(0, 3, size=n)]
        cm = confusion(preds, truth)
        for positive in (0, 1, 2):
            tp = sum(1 for p, t in zip(preds, truth) if p == positive and t == positive)
            fp = sum(1 for p, t in zip(preds, truth) if p == positive and t != positive)
            fn = sum(1 for p, t in zip(preds, truth) if p != positive and t == positive)
            tn = n - tp - fp - fn
            want = (
                tp / (tp + fp) if tp + fp else 0.0,
                tp / (tp + fn) if tp + fn else 0.0,
                0.0,
                (tp + tn) / n,
            )
            p, r = want[0], want[1]
            want = (p, r, 2 * p * r / (p + r) if p + r else 0.0, want[3])
            if metrics(cm, positive) != want:
                exact = False

    got = metrics([[7, 4, 3], [1, 2, 0], [2, 0, 1]], 0)
    fixture_ok = (got[0] == 0.7 and got[1] == 0.5
                  and abs(got[2] - 0.583333) < 1e-6 and got[3] == 0.5)
    _verdict(exact and fixture_ok, "metric oracle",
             f"1000 tallies exact={exact}, fixture={tuple(round(v, 6) for v in got)}")


def test_feature_oracle():
    fixture = extract_shsr_stats(np.reshape([0.0, 0.0, 50.0, 10.0], (2, 2, 1)))
    fixture_ok = fixture == (0.0, 50.0, 15.0, 425.0, 2.0, 1.0)

    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        dims = tuple(int(v) for v in rng.integers(1, 5, size=3))
        count = dims[0] * dims[1] * dims[2]
        values = rng.uniform(-10.0, 60.0, size=count)
        values[rng.random(count) < 0.2] = -999.0
        if np.all(values == -999.0):
            values[0] = 12.5
        threshold = float(rng.uniform(0.0, 50.0))
        got = extract_shsr_stats(values.reshape(dims), threshold)

        kept = [v for v in values if v != -999.0]
        mean = sum(kept) / len(kept)
        want = (
            min(kept),
            max(kept),
            mean,
            sum((v - mean) ** 2 for v in kept) / len(kept),
            float(sum(1 for v in kept if abs(v) > 0.0)),
            float(sum(1 for v in kept if v > threshold)),
        )
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    ok = fixture_ok and worst < 1e-12
    _verdict(ok, "volume statistics oracle",
             f"fixture={fixture}, max dev {worst:.2e}")


def test_end_to_end_learnability(tmp_path):
    start = time.monotonic()
    run = RunConfig()  # 500 per class, seed 42, the shipped architecture
    events, volumes = generate_synthetic(run.synthetic_config())
    samples = SequenceSet([e.event_id for e in events], [e.label for e in events],
                          [build_sample(e, v, threshold=run.threshold,
                                        kalman_q=run.kalman_q, kalman_r=run.kalman_r)
                           for e, v in zip(events, volumes)])
    parts = split(balance(samples, run.seed), run.fractions, run.seed)
    _, steps, width = parts.train.data.shape
    model_config = standardize_inputs(run.model_config(steps, width), parts.train)
    params, _ = train(parts.train, parts.validation, model_config, run.train_config())

    model_report = evaluate(
        lambda data: predict_class(forward(data, params, model_config)),
        parts.test, positive=0, name="model")
    knn_report = evaluate(KNNClassifier(k=run.knn_k).fit(parts.train).predict,
                          parts.test, positive=0, name="knn")
    accuracy = multiclass_accuracy(model_report.confusion)
    elapsed = time.monotonic() - start
    ok = (accuracy >= 0.85 and model_report.f1 >= 0.75
          and model_report.f1 > knn_report.f1 and elapsed < 600.0)
    _verdict(ok, "end-to-end learnability",
             f"accuracy {accuracy:.4f} (needs 0.85), tornado F1 {model_report.f1:.4f}"
             f" (needs 0.75), KNN tornado F1 {knn_report.f1:.4f}, {elapsed:.0f}s")
    # the byte contract on the default config, as test_artifact_digests keeps it
    for name, samples in (("train.csv", parts.train), ("val.csv", parts.validation), ("test.csv", parts.test)):
        write_sequences(tmp_path / name, samples)
    save_checkpoint(params, model_config, tmp_path / "model.ckpt")
    probs = forward(parts.test.data, params, model_config)
    write_predictions(tmp_path / "predictions.csv", parts.test, probs, predict_class(probs))
    uncompared = _check_digests({path.name: path.read_bytes() for path in tmp_path.iterdir()},
                                _DIGESTS.with_name("default_digests.txt"))
    if uncompared:  # the learnability verdict above stands; only the model-side bytes went unchecked
        warnings.warn(uncompared)


_SMALL_RUN = (
    "seed = 5\n"
    "data.samples_per_class = 12\n"
    "data.steps = 6\n"
    "data.grid = 4x4x2\n"
    "data.cell = 2x2x1\n"
    "model.conv = 6x3\n"
    "model.hidden = 8\n"
    "model.heads = 4\n"
    "train.max_epochs = 4\n"
    "train.batch_size = 8\n"
    "train.patience = 4\n"
)


def test_pipeline_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(_SMALL_RUN)
    artifacts = ("train.csv", "val.csv", "test.csv", "model.ckpt",
                 "metrics_model.csv", "metrics_model.txt", "predictions.csv")
    runs = {}
    for name in ("first", "second"):
        out = tmp_path / name
        for sub in (["generate"], ["featurize"], ["train"], ["evaluate"], ["predict"]):
            code = cli.main(sub + ["--config", str(config), "--out", str(out)])
            assert code == 0, f"{sub[0]} failed on the {name} run"
        runs[name] = [(out / a).read_bytes() for a in artifacts]
    identical = [a for a, x, y in zip(artifacts, runs["first"], runs["second"]) if x == y]
    ok = identical == list(artifacts)
    _verdict(ok, "pipeline determinism",
             f"{len(identical)}/{len(artifacts)} artifacts byte-identical")


_DIGESTS = pathlib.Path(__file__).with_name("artifact_digests.txt")
# no BLAS product reaches these files, so their bytes hold on every build
_DATA_SIDE = {"events.csv", "volumes.csv", "train.csv", "val.csv", "test.csv", "run_config.txt"}


def _numeric_build():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, {platform.machine()}"


def _check_digests(files, digests):
    """Compare the sha256 of each file's bytes ({name: bytes}) with the
    digest file: the data-side files always, the model-side files only on
    the NumPy/BLAS build they were recorded on.  Returns why the model
    side was not compared, on another build, else None.  Re-record
    digests only for a change meant to alter bytes."""
    got = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    lines = [line for line in digests.read_text().splitlines() if not line.startswith("#")]
    build = lines[0].removeprefix("build ")
    want = {name: digest for digest, name in (line.split() for line in lines[1:])}
    same_build = build == _numeric_build()
    compared = sorted(name for name in want.keys() | got.keys()
                      if same_build or name in _DATA_SIDE)
    differ = [name for name in compared if got.get(name) != want.get(name)]
    _verdict(not differ, f"artifact digests ({digests.name})",
             f"differ: {', '.join(differ)}" if differ else f"{len(compared)} files match")
    if not same_build:
        return f"model-side files not compared: recorded on {build}, running {_numeric_build()}"
    return None


def test_artifact_digests(tmp_path):
    # the byte contract: every artifact of the small run, with every
    # baseline and the report, keeps the sha256 recorded in
    # artifact_digests.txt (out_dir normalized in run_config.txt)
    config = tmp_path / "run.cfg"
    config.write_text(_SMALL_RUN)
    out = tmp_path / "run"
    for sub in (["generate"], ["featurize"], ["train"], ["evaluate", "--baselines", "knn,rnn,lstm,bilstm"],
                ["predict"], ["report"]):
        assert cli.main(sub + ["--config", str(config), "--out", str(out)]) == 0, sub[0]
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    files["run_config.txt"] = files["run_config.txt"].replace(str(out).encode(), b"OUT")
    uncompared = _check_digests(files, _DIGESTS)
    if uncompared:
        pytest.skip(uncompared)


def test_balance_and_split_contract():
    counts = {0: 1364, 1: 5000, 2: 8000}
    labels = [label for label, n in counts.items() for _ in range(n)]
    ids = [f"c{label}_{i}" for label, n in counts.items() for i in range(n)]
    samples = SequenceSet(ids, labels, np.zeros((len(labels), 1, 1)))
    balanced = balance(samples, seed=42)
    balanced_ok = (len(balanced) == 4092
                   and class_counts(balanced) == {0: 1364, 1: 1364, 2: 1364})

    parts = split(balanced, (0.8, 0.1, 0.1), seed=42)
    sizes_ok = parts.sizes() == (3273, 408, 411)
    per_class_ok = (class_counts(parts.train) == {0: 1091, 1: 1091, 2: 1091}
                    and class_counts(parts.validation) == {0: 136, 1: 136, 2: 136}
                    and class_counts(parts.test) == {0: 137, 1: 137, 2: 137})
    ok = balanced_ok and sizes_ok and per_class_ok
    _verdict(ok, "balance and split contract",
             f"balanced {len(balanced)}, splits {parts.sizes()}")
