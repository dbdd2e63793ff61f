"""stormstack: a severe-weather sequence-classification toolkit.

Pipeline pieces: a seeded synthetic storm generator, reflectivity
statistics with Kalman smoothing, a Conv-BiLSTM-attention classifier
on a small reverse-mode autodiff core, and one-vs-rest evaluation.
"""
