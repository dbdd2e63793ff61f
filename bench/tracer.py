"""Run one stormstack CLI stage with span wrappers around each layer.

    python3 bench/tracer.py SPANS.json generate --config run.cfg --out run

The arguments after SPANS.json are the ordinary `stormstack` arguments.
Before calling `stormstack.cli.main` this script replaces the public
functions of every layer with wrappers that record a span (name, start,
end, parent) and, for a few calls, a detail such as tape length or file
size.  Each wrapper is installed on the name the caller looks up, e.g.
`stormstack.training.forward_batch` for the trainer and
`stormstack.model.forward_batch` for `forward`.  `lstm_cell` is only
counted, since it runs sixteen times per forward pass.  Spans stay in
memory and are written to SPANS.json when the stage exits; nothing under
`src/` changes.
"""

import functools
import json
import os
import sys
import time

_clock = time.perf_counter


class Recorder:
    """Spans and call counts of one stage process, kept in memory."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, detail or None]
        self.counts = {}
        self._open = []

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so each call records a span; before(args) or after(args)
        supplies its detail."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            detail = before(args) if before else None
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, detail])
            self._open.append(index)
            self.spans[index][1] = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][2] = _clock()
                self._open.pop()
                if after:
                    self.spans[index][4] = after(args)
        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper


def _file_size(args):
    return os.path.getsize(args[0])


def install(recorder):
    """Wrap every traced call site; returns `stormstack.cli` and the
    seconds its import took (numpy and every layer included)."""
    start = _clock()
    import stormstack.cli as cli
    import_s = _clock() - start
    from stormstack import dataio, features, model, rng, tensor, training

    def taped(args):
        return {"taped": tensor._active() is not None}

    def tape_length(args):
        return {"tape_ops": len(args[0].ops)}

    sites = [
        (rng.SplitMix64, "normal_block", "rng.normal_block"),
        (cli, "generate_synthetic", "synthetic.generate_synthetic"),
        (cli, "build_sample", "features.build_sample"),
        (features, "extract_shsr_stats", "features.extract_shsr_stats"),
        (features, "smooth_series", "kalman.smooth_series"),
        (model, "channel_affine", "model.standardize"),
        (model, "conv1d", "model.conv"),
        (model, "relu", "model.conv"),
        (model, "bilstm_forward", "model.bilstm"),
        (model, "multi_head_attention", "model.attention"),
        (cli, "forward", "model.forward"),
        (model.KNNClassifier, "predict", "model.knn_predict"),
        (training, "adam_step", "training.adam_step"),
        (cli, "fit_model", "training.train"),
        (cli, "evaluate", "metrics.evaluate"),
    ]
    for owner, attr, name in sites:
        setattr(owner, attr, recorder.span(name, getattr(owner, attr)))
    for attr in ("write_events", "load_events", "write_sequences", "load_sequences",
                 "save_checkpoint", "load_checkpoint"):
        setattr(dataio, attr, recorder.span(f"dataio.{attr}", getattr(dataio, attr)))
    dataio.write_volumes = recorder.span("dataio.write_volumes", dataio.write_volumes, after=_file_size)
    dataio.load_volumes = recorder.span("dataio.load_volumes", dataio.load_volumes, before=_file_size)
    forward_batch = recorder.span("model.forward_batch", model.forward_batch, before=taped)
    model.forward_batch = training.forward_batch = forward_batch
    training.backward = recorder.span("tensor.backward", training.backward, before=tape_length)
    model.lstm_cell = recorder.counter("model.lstm_cell", model.lstm_cell)
    for stage, command in list(cli._COMMANDS.items()):
        cli._COMMANDS[stage] = recorder.span(f"cli.{stage}", command)
    return cli, import_s


def main(argv):
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json STAGE [stormstack options]", file=sys.stderr)
        return 1
    out_path, stage_args = argv[0], argv[1:]
    recorder = Recorder()
    cli, import_s = install(recorder)
    code = 1
    try:
        code = cli.main(stage_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"stage": stage_args[0], "exit": code, "import_s": import_s,
                       "spans": recorder.spans, "counts": recorder.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
