"""Command-line pipeline: generate -> featurize -> train -> evaluate ->
predict, plus report to merge saved evaluations.

Artifacts live under the output directory (--out, default runs/):

    events.csv, volumes.csv      raw generated dataset
    train.csv, val.csv, test.csv featurized splits
    model.ckpt, train_log.csv    fitted model and epoch log
    metrics_<name>.txt / .csv    per-classifier evaluation
    report.txt                   merged comparison table
    run_config.txt               resolved configuration echo

Exit status: 0 success, 1 usage error or out of memory, 2 data or
validation error, 3 numeric failure, 130 interrupted (Ctrl-C), 143
terminated (SIGTERM); each error prints one diagnostic line on stderr.
"""

import argparse
import os
import signal
import sys

from . import dataio
from .config import integer, resolve, resolved_lines
from .errors import DataError, NumericError, StormError, UsageError, ValidationError
from .features import AUX_CHANNELS, SequenceSet, balance, build_sample, split
from .metrics import evaluate, format_metrics_row, render_table
from .model import KNNClassifier, forward, predict_class, standardize_inputs
from .synthetic import generate_synthetic
from .training import train as fit_model

MODEL_NAME = "Kalman-Conv BiLSTM with Attention"
# metrics_<slug>.* file slug -> report name, in report order
_CLASSIFIERS = {"knn": "KNN", "rnn": "RNN", "lstm": "LSTM", "bilstm": "BiLSTM", "model": MODEL_NAME}
BASELINES = tuple(_CLASSIFIERS)[:-1]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the
    # usage-error path instead so the exit-code contract holds
    def error(self, message):
        raise UsageError(message)


def _out(cfg, name):
    return os.path.join(cfg.out_dir, name)


def _write(cfg, name, lines):
    dataio.write_lines(_out(cfg, name), lines)


def _write_run_log(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write(cfg, "run_config.txt", resolved_lines(cfg))


def cmd_generate(cfg, args):
    events, scans = generate_synthetic(cfg.synthetic_config())
    _write_run_log(cfg)
    dataio.write_events(_out(cfg, "events.csv"), events, AUX_CHANNELS)
    dataio.write_volumes(_out(cfg, "volumes.csv"), events, scans)
    print(f"generated {len(events)} events with {cfg.steps} volumes each -> {cfg.out_dir}")
    return 0


def cmd_featurize(cfg, args):
    events, channels = dataio.load_events(_out(cfg, "events.csv"))
    volumes = _out(cfg, "volumes.csv")
    scans, first_lines = dataio.load_volumes(volumes)
    missing = [e.event_id for e in events if e.event_id not in scans]
    if missing:
        raise ValidationError(f"no volumes for events {missing[:5]} (of {len(missing)})")
    unknown = sorted(scans.keys() - {e.event_id for e in events})
    if unknown:
        raise ValidationError(f"volumes for events not in events.csv {unknown[:5]} (of {len(unknown)})")
    matrices = []
    for e in events:
        try:
            matrices.append(build_sample(e, scans[e.event_id], threshold=cfg.threshold, channels=channels,
                                         kalman_q=cfg.kalman_q, kalman_r=cfg.kalman_r))
        except ValidationError as exc:  # a fault in the event's scans: name its first row
            raise ValidationError(f"{volumes}:{first_lines[e.event_id]}: {exc}") from None
    del scans  # views of the parsed tables, which go before the splits are built
    try:
        samples = SequenceSet([e.event_id for e in events], [e.label for e in events], matrices)
    except DataError as exc:  # a fault in one event's sample: name its first row
        if not hasattr(exc, "sample"):
            raise
        raise type(exc)(f"{volumes}:{first_lines[events[exc.sample].event_id]}: {exc}") from None
    balanced = balance(samples, cfg.seed)
    parts = split(balanced, cfg.fractions, cfg.seed)
    _write_run_log(cfg)
    dataio.write_sequences(_out(cfg, "train.csv"), parts.train)
    dataio.write_sequences(_out(cfg, "val.csv"), parts.validation)
    dataio.write_sequences(_out(cfg, "test.csv"), parts.test)
    print(f"featurized {len(samples)} events -> splits {parts.sizes()} in {cfg.out_dir}")
    return 0


def _load_split(cfg, name):
    return dataio.load_sequences(_out(cfg, f"{name}.csv"))


def _fit(cfg, train_set, val_set, **variant):
    """Standardize on the training split, then fit; variant overrides
    recurrent/attention for the baselines."""
    _, steps, width = train_set.data.shape
    model_config = standardize_inputs(cfg.model_config(steps, width, **variant), train_set)
    params, log = fit_model(train_set, val_set, model_config, cfg.train_config())
    return params, model_config, log


def _classifier(params, model_config):
    def classify(data):
        return predict_class(forward(data, params, model_config))
    return classify


def cmd_train(cfg, args):
    train_set = _load_split(cfg, "train")
    val_set = _load_split(cfg, "val")
    params, model_config, log = _fit(cfg, train_set, val_set)
    _write_run_log(cfg)
    dataio.save_checkpoint(params, model_config, _out(cfg, "model.ckpt"))
    _write(cfg, "train_log.csv", ["epoch,train_loss,val_loss,val_accuracy"]
           + [f"{epoch},{loss!r},{val_loss!r},{acc!r}" for epoch, loss, val_loss, acc in log])
    last = log[-1] if log else (None, float("nan"), float("nan"), float("nan"))
    print(f"trained {len(log)} epochs, final val_loss {last[2]:.4f}"
          f" val_accuracy {last[3]:.4f} -> {cfg.out_dir}/model.ckpt")
    return 0


def _write_evaluation(cfg, slug, report):
    dataio.write_report_csv(_out(cfg, f"metrics_{slug}.csv"), [report])
    _write(cfg, f"metrics_{slug}.txt", [format_metrics_row(report.name, report)])
    print(format_metrics_row(report.name, report))


def cmd_evaluate(cfg, args):
    # a repeated name is scored once, in first-seen order
    requested = list(dict.fromkeys(b.strip() for b in args.baselines.split(",") if b.strip()))
    unknown = [b for b in requested if b not in BASELINES]
    if unknown:
        raise UsageError(f"unknown baselines {unknown}; choose from {list(BASELINES)}")
    # every input is read before any write; the model is scored and dropped
    # before the training splits load, so they reuse its weights' and buffers' memory
    test_set = _load_split(cfg, "test")
    positive = args.positive_class
    params, model_config = dataio.load_checkpoint(_out(cfg, "model.ckpt"))
    model_config.check_shape(test_set.data, _out(cfg, "test.csv"))
    report = evaluate(_classifier(params, model_config), test_set, positive, MODEL_NAME)
    del params
    if requested:
        train_set = _load_split(cfg, "train")
    if set(requested) - {"knn"}:  # the fitted baselines validate on val.csv
        val_set = _load_split(cfg, "val")
    _write_run_log(cfg)
    _write_evaluation(cfg, "model", report)
    for slug in requested:
        if slug == "knn":
            classify = KNNClassifier(k=cfg.knn_k).fit(train_set).predict
        else:
            variant_params, variant_config, _ = _fit(cfg, train_set, val_set,
                                                     recurrent=slug, attention=False)
            classify = _classifier(variant_params, variant_config)
        _write_evaluation(cfg, slug, evaluate(classify, test_set, positive, _CLASSIFIERS[slug]))
    return 0


def cmd_predict(cfg, args):
    checkpoint = args.checkpoint or _out(cfg, "model.ckpt")
    source = args.input or _out(cfg, "test.csv")
    params, model_config = dataio.load_checkpoint(checkpoint)
    samples = dataio.load_sequences(source)
    model_config.check_shape(samples.data, source)
    # every sample is scored before any file is written
    probs = forward(samples.data, params, model_config)
    predicted = predict_class(probs)
    _write_run_log(cfg)
    dataio.write_predictions(_out(cfg, "predictions.csv"), samples, probs, predicted)
    print(f"wrote probabilities for {len(samples)} samples -> {_out(cfg, 'predictions.csv')}")
    return 0


def cmd_report(cfg, args):
    reports = []
    for slug in _CLASSIFIERS:
        path = _out(cfg, f"metrics_{slug}.csv")
        if os.path.exists(path):
            reports.extend(dataio.read_report_csv(path))
    if not reports:
        raise DataError(f"no metrics_*.csv files found in {cfg.out_dir}; run evaluate first")
    classes = sorted({r.positive_class for r in reports})
    if len(classes) > 1:
        raise ValidationError(f"metrics_*.csv files in {cfg.out_dir} mix positive classes {classes};"
                              " evaluate every classifier with one --positive-class")
    _write_run_log(cfg)
    table = render_table(reports)
    _write(cfg, "report.txt", table.splitlines())
    print(table, end="")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "report": cmd_report,
}


def build_parser():
    parser = _Parser(prog="stormstack", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, help_text in (
        ("generate", "write a synthetic event/volume dataset"),
        ("featurize", "turn raw volumes into balanced, split sequence files"),
        ("train", "fit the sequence classifier and save a checkpoint"),
        ("evaluate", "score the checkpoint (and baselines) on the test split"),
        ("predict", "write per-sample class probabilities"),
        ("report", "merge saved evaluations into one comparison table"),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", metavar="PATH", help="key=value config file")
        sub.add_argument("--seed", type=integer, metavar="N", help="override the config seed")
        sub.add_argument("--out", metavar="DIR", help="artifact directory (default runs/)")
        if name == "evaluate":
            sub.add_argument("--baselines", metavar="LIST", default="",
                             help="comma-separated subset of knn,rnn,lstm,bilstm")
            sub.add_argument("--positive-class", type=integer, default=0, metavar="N",
                             choices=(0, 1, 2), help="one-vs-rest positive class (default 0)")
        if name == "predict":
            sub.add_argument("--checkpoint", metavar="PATH", help="model file (default OUT/model.ckpt)")
            sub.add_argument("--input", metavar="PATH", help="sequence file (default OUT/test.csv)")
    return parser


class _Terminated(BaseException):
    """SIGTERM, raised where the stage is, so its temp file and workers go."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None):
    parser = build_parser()
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        cfg = resolve(args.config, args.seed, args.out)
        return _COMMANDS[args.command](cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except StormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # readers raise DataError instead, so a write failed
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # NumPy's _ArrayMemoryError too
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # every temp file and worker is gone by now
        print("interrupted", file=sys.stderr)
        return 130
    except _Terminated:  # as for Ctrl-C, every temp file and worker is gone
        print("terminated", file=sys.stderr)
        return 143
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
