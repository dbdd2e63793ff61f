"""A complete training run, small enough to watch.

Generates a few dozen synthetic events, featurizes them, trains the
sequence classifier with early stopping, and scores it against the
k-nearest-neighbour baseline on the held-out test split.
"""

import time

from stormstack.config import RunConfig
from stormstack.features import SequenceSet, balance, build_sample, split
from stormstack.metrics import evaluate, multiclass_accuracy, render_table
from stormstack.model import KNNClassifier, forward, predict_class, standardize_inputs
from stormstack.synthetic import generate_synthetic
from stormstack.training import train

run = RunConfig(
    seed=17,
    samples_per_class=80,
    steps=6,
    conv_layers=((16, 3),),
    lstm_hidden=16,
    attention_heads=4,
    max_epochs=30,
    patience=8,
    batch_size=16,
)

start = time.time()
events, volumes = generate_synthetic(run.synthetic_config())
samples = SequenceSet([e.event_id for e in events], [e.label for e in events],
                      [build_sample(e, v, threshold=run.threshold,
                                    kalman_q=run.kalman_q, kalman_r=run.kalman_r)
                       for e, v in zip(events, volumes)])
parts = split(balance(samples, run.seed), run.fractions, run.seed)
print(f"dataset: {parts.sizes()} train/val/test samples,"
      f" {samples.data.shape[2]} channels per step")

_, steps, width = parts.train.data.shape
model_config = standardize_inputs(run.model_config(steps, width), parts.train)
params, log = train(parts.train, parts.validation, model_config, run.train_config())
print()
print("epoch  train_loss  val_loss  val_acc")
for epoch, train_loss, val_loss, val_acc in log:
    print(f"{epoch:<6d} {train_loss:10.4f} {val_loss:9.4f} {val_acc:8.3f}")

model_report = evaluate(lambda data: predict_class(forward(data, params, model_config)),
                        parts.test, positive=0, name="Conv-BiLSTM-attention")
knn_report = evaluate(KNNClassifier(k=run.knn_k).fit(parts.train).predict,
                      parts.test, positive=0, name="KNN")

print()
print(render_table([knn_report, model_report]), end="")
print()
print(f"multiclass accuracy: {multiclass_accuracy(model_report.confusion):.3f}")
print(f"confusion (rows = truth):\n{model_report.confusion}")
print(f"total time: {time.time() - start:.1f}s")
