"""Per-layer metrics: what each one is, what it should move, and how it
is computed from the span files that `tracer.py` writes.

MOVES is the map later changes cite: it takes each per-layer metric of
`BENCHMARK.json`, in the same order, to the end-to-end metric and
workload it should move.  Units and directions live in `BENCHMARK.json`.
"""

import statistics

# Tape entries per training step of the default architecture
# (conv 32x3,32x3, BiLSTM 64, 4 heads), as measured on the unmodified
# program; a wrapper that misses an op or a step changes it.
DEFAULT_TAPE_OPS = 357

_GEN = "generate_events_per_s (ingest)"
_FEAT = "featurize_events_per_s (ingest)"
_STEP = "train_samples_per_s (fit)"
_FWD = "train_samples_per_s (fit), predict_samples_per_s (score)"
_INFER = "predict_samples_per_s, evaluate_s (score)"

MOVES = {
    "rng.normal_block.calls": _GEN,
    "rng.normal_block.s": _GEN,
    "synthetic.generate_synthetic.self_s": _GEN,
    "dataio.write_volumes.s": _GEN,
    "dataio.write_volumes.mb_per_s": _GEN,
    "dataio.write_events.s": _GEN,
    "dataio.load_volumes.s": _FEAT,
    "dataio.load_volumes.mb_per_s": _FEAT,
    "dataio.load_events.s": _FEAT,
    "dataio.write_sequences.s": _FEAT,
    "dataio.load_sequences.s": "train_s (fit), evaluate_s and predict_samples_per_s (score)",
    "dataio.save_checkpoint.s": "train_s (fit)",
    "dataio.load_checkpoint.s": "evaluate_s (score)",
    "features.build_sample.self_s": _FEAT,
    "features.extract_shsr_stats.calls": _FEAT,
    "features.extract_shsr_stats.s": _FEAT,
    "kalman.smooth_series.calls": _FEAT,
    "kalman.smooth_series.s": _FEAT,
    "model.standardize.fwd_ms": _FWD,
    "model.conv.fwd_ms": _FWD,
    "model.bilstm.fwd_ms": _FWD,
    "model.attention.fwd_ms": _FWD,
    "model.head.fwd_ms": _FWD,
    "model.lstm_cell.calls": _STEP,
    "model.forward.calls": _INFER,
    "model.forward.ms_p50": _INFER,
    "model.forward.ms_p99": _INFER,
    "model.forward_batch.calls": _INFER,
    "model.knn_predict.s": "evaluate_s (score)",
    "tensor.tape_ops_per_step": _STEP,
    "tensor.backward.ms_p50": _STEP,
    "tensor.backward.ms_p99": _STEP,
    "training.step_ms.p50": _STEP,
    "training.step_ms.p99": _STEP,
    "training.adam_step.ms_p50": _STEP,
    "training.val_eval.s": "train_s (fit)",
    "training.useful_epoch_ratio": "train_s and epochs_run at equal test_accuracy (fit)",
    "metrics.evaluate.self_s": "evaluate_s (score)",
    "cli.generate.self_s": _GEN,
    "cli.featurize.self_s": _FEAT,
    "cli.train.self_s": "train_s (fit)",
    "cli.evaluate.self_s": "evaluate_s (score)",
    "cli.predict.self_s": "predict_samples_per_s (score)",
    "cli.import_s": "setup_s and every stage wall time (all workloads)",
    "trace.overhead_s": "none: the tracer's own cost (all workloads)",
    "trace.overhead_ratio": "none: the tracer's own cost (all workloads)",
}

# Sub-spans of one forward_batch call, by layer; the rest of the call
# (time mean, dense layer, softmax) is the head.
_FORWARD_LAYERS = ("model.standardize", "model.conv", "model.bilstm", "model.attention")


def percentile(values, q):
    """Inclusive-method percentile q (1-99) of values; 0.0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _children(spans):
    kids = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(index)
    return kids


def _self_time(spans, kids, index):
    start, end = spans[index][1], spans[index][2]
    return (end - start) - sum(spans[k][2] - spans[k][1] for k in kids[index])


def _under(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def nesting_errors(spans):
    """Spans that are not inside their parent's interval, as messages."""
    errors = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            errors.append(f"{name}#{index} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end = spans[parent][:3]
            if not (p_start <= start and end <= p_end):
                errors.append(f"{name}#{index} lies outside its parent {p_name}#{parent}")
    return errors


def layer_metrics(traces, focus_stages, events, steps, conv_steps, val_accuracy):
    """Per-layer metrics of one traced pass.

    traces holds one decoded span file per stage process.  Totals (`.s`,
    `.calls`, `.self_s`) sum over the pass.  The per-layer forward times
    are medians over the forward_batch calls made by the focus stages
    (the stages the workload repeats), or over the whole pass when those
    make none.  Returns (metrics, problems); problems lists every failed
    exact-count check.
    """
    totals, calls, self_s = {}, {}, {}
    forward_rows, focus_rows = [], []
    forward_ms, backward_ms, adam_ms, step_ms, tape_ops = [], [], [], [], []
    val_eval_s = 0.0
    volume_bytes = {"dataio.write_volumes": 0, "dataio.load_volumes": 0}
    problems = []
    for trace in traces:
        spans = trace["spans"]
        kids = _children(spans)
        stage = trace["stage"]
        for error in nesting_errors(spans):
            problems.append(f"{stage}: {error}")
        step_start = None
        batches = 0
        for index, (name, start, end, parent, detail) in enumerate(spans):
            totals[name] = totals.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + _self_time(spans, kids, index)
            if name in volume_bytes:
                volume_bytes[name] += detail
            elif name == "model.forward":
                forward_ms.append(1e3 * (end - start))
            elif name == "tensor.backward":
                backward_ms.append(1e3 * (end - start))
                tape_ops.append(detail["tape_ops"])
            elif name == "training.adam_step":
                adam_ms.append(1e3 * (end - start))
                if step_start is not None:
                    step_ms.append(1e3 * (end - step_start))
                    step_start = None
            elif name == "model.forward_batch":
                batches += 1
                if detail["taped"]:
                    step_start = start
                elif _under(spans, index, "training.train"):
                    val_eval_s += end - start
                row = {"model.head": 1e3 * _self_time(spans, kids, index)}
                for layer in _FORWARD_LAYERS:
                    row[layer] = 1e3 * sum(spans[k][2] - spans[k][1]
                                           for k in kids[index] if spans[k][0] == layer)
                forward_rows.append(row)
                if stage in focus_stages:
                    focus_rows.append(row)
        cells = trace["counts"].get("model.lstm_cell", 0)
        if cells != 2 * conv_steps * batches:
            problems.append(f"{stage}: model.lstm_cell ran {cells} times for {batches}"
                            f" forward_batch calls (expected {2 * conv_steps * batches})")
        if stage == "featurize":
            stats_calls = sum(1 for s in spans if s[0] == "features.extract_shsr_stats")
            if stats_calls != events * steps:
                problems.append(f"featurize: extract_shsr_stats ran {stats_calls} times"
                                f" (expected {events} events x {steps} scans)")
    wrong_tapes = sorted({n for n in tape_ops if n != DEFAULT_TAPE_OPS})
    if wrong_tapes:
        problems.append(f"train: tape lengths {wrong_tapes} (expected {DEFAULT_TAPE_OPS})")

    rows = focus_rows or forward_rows
    # the first epoch has no predecessor, so it counts as useful
    changed = [i == 0 or val_accuracy[i] != val_accuracy[i - 1] for i in range(len(val_accuracy))]
    values = {
        "rng.normal_block.calls": calls.get("rng.normal_block", 0),
        "rng.normal_block.s": totals.get("rng.normal_block", 0.0),
        "synthetic.generate_synthetic.self_s": self_s.get("synthetic.generate_synthetic", 0.0),
        "dataio.write_volumes.s": totals.get("dataio.write_volumes", 0.0),
        "dataio.load_volumes.s": totals.get("dataio.load_volumes", 0.0),
        "features.build_sample.self_s": self_s.get("features.build_sample", 0.0),
        "features.extract_shsr_stats.calls": calls.get("features.extract_shsr_stats", 0),
        "features.extract_shsr_stats.s": totals.get("features.extract_shsr_stats", 0.0),
        "kalman.smooth_series.calls": calls.get("kalman.smooth_series", 0),
        "kalman.smooth_series.s": totals.get("kalman.smooth_series", 0.0),
        "model.lstm_cell.calls": sum(t["counts"].get("model.lstm_cell", 0) for t in traces),
        "model.forward.calls": len(forward_ms),
        "model.forward_batch.calls": calls.get("model.forward_batch", 0),
        "model.knn_predict.s": totals.get("model.knn_predict", 0.0),
        "training.val_eval.s": val_eval_s,
        "training.useful_epoch_ratio": sum(changed) / len(changed) if changed else 0.0,
        "metrics.evaluate.self_s": self_s.get("metrics.evaluate", 0.0),
        "cli.import_s": statistics.median(t["import_s"] for t in traces),
    }
    for attr in ("write_events", "load_events", "write_sequences", "load_sequences",
                 "save_checkpoint", "load_checkpoint"):
        values[f"dataio.{attr}.s"] = totals.get(f"dataio.{attr}", 0.0)
    for name in ("dataio.write_volumes", "dataio.load_volumes"):
        seconds = totals.get(name, 0.0)
        values[f"{name}.mb_per_s"] = volume_bytes[name] / 1e6 / seconds if seconds else 0.0
    for layer in _FORWARD_LAYERS + ("model.head",):
        values[f"{layer}.fwd_ms"] = statistics.median(r[layer] for r in rows) if rows else 0.0
    for stage in ("generate", "featurize", "train", "evaluate", "predict"):
        values[f"cli.{stage}.self_s"] = self_s.get(f"cli.{stage}", 0.0)
    values.update({
        "model.forward.ms_p50": percentile(forward_ms, 50),
        "model.forward.ms_p99": percentile(forward_ms, 99),
        "tensor.backward.ms_p50": percentile(backward_ms, 50),
        "tensor.backward.ms_p99": percentile(backward_ms, 99),
        "training.step_ms.p50": percentile(step_ms, 50),
        "training.step_ms.p99": percentile(step_ms, 99),
        "training.adam_step.ms_p50": percentile(adam_ms, 50),
    })
    values["tensor.tape_ops_per_step"] = statistics.median_low(tape_ops) if tape_ops else 0
    return values, problems
