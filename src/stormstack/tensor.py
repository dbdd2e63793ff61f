"""Dense float64 arrays with reverse-mode automatic differentiation.

Just enough of an array engine to train the sequence models in this
toolkit: explicit operations, an execution-ordered tape, and a finite
difference gradient checker.  No broadcasting beyond bias addition, no
views, no in-place math; every operation allocates its output.

Typical use::

    with Graph() as g:
        y = matmul(x, w)
        loss = sum_all(relu(y))
    backward(g, loss)
    w.grad  # ndarray of d loss / d w

backward spends the graph it is handed: each entry, and the activations
its rule holds, is dropped as soon as the rule has run, and an
intermediate keeps its ``.grad`` only for as long as the program keeps
the tensor.  Record a new Graph for every backward.

Operations executed while no Graph is active compute forward values only,
which is the inference fast path.
"""

from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, NumericError, UsageError


class Tensor:
    """Immutable dense array of float64 values plus an optional gradient.

    ``values`` exposes the row-major flat view of the data; ``grad`` is
    None until a backward pass deposits accumulated partials (stored with
    the tensor's shape; flatten for the row-major view).
    """

    __slots__ = ("array", "grad")

    def __init__(self, data, _checked=False):
        arr = np.asarray(data, dtype=np.float64)
        if not _checked and not np.isfinite(arr).all():
            raise NumericError("tensor values must be finite (got NaN or Inf)")
        arr.flags.writeable = False
        self.array = arr
        self.grad = None

    @property
    def shape(self):
        return self.array.shape

    @property
    def values(self):
        return self.array.reshape(-1)

    @property
    def ndim(self):
        return self.array.ndim

    @property
    def size(self):
        return self.array.size

    def item(self) -> float:
        if self.array.size != 1:
            raise UsageError(f"item() needs a single-element tensor, shape is {self.shape}")
        return float(self.array.reshape(())[()])

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Graph:
    """Execution-ordered record of differentiable operations.

    Each entry holds the output tensor, the input tensors, and a backward
    rule mapping the output gradient to input gradients.  Execution order
    is a topological order by construction, so the backward sweep visits
    entries exactly once, in reverse.  A Graph is single-owner: do not
    share one across threads.  Its one backward spends it: ``ops`` is
    None afterwards, and nothing more may be recorded on it.
    """

    def __init__(self):
        self.ops = []

    def __enter__(self):
        _graph_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _graph_stack.pop()
        assert popped is self
        return False

    def record(self, out, inputs, backward_fn):
        self.ops.append((out, inputs, backward_fn))


_graph_stack = []


def _active():
    return _graph_stack[-1] if _graph_stack else None


class RowInvariant:
    """Scope in which every 2-D matmul runs as a stack of one-row
    products, ``np.matmul(a[:, None, :], b)[:, 0, :]``.

    A plain GEMM's blocking, and so its rounding, depends on how many
    rows it multiplies; a stack of one-row products gives each output
    row the bits it has when that row is multiplied alone.  Inference
    enters this scope so a sample's probabilities do not depend on the
    other samples scored with it.  Training never does.
    """

    def __enter__(self):
        _row_scopes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _row_scopes.pop()
        assert popped is self
        return False


_row_scopes = []


def _emit(values, inputs, backward_fn):
    if values.ndim == 0:  # an elementwise op on 0-d arrays gives a NumPy scalar
        values = np.asarray(values)
    values.flags.writeable = False
    out = Tensor.__new__(Tensor)
    out.array, out.grad = values, None
    g = _active()
    if g is not None:
        g.record(out, inputs, backward_fn)
    return out


def _finite_or_raise(arr, op):
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")
    return arr


def backward(graph: Graph, loss: Tensor) -> None:
    """Accumulate d loss / d tensor into ``.grad`` for every tensor that
    the loss depends on.  ``loss`` must be a scalar recorded on ``graph``.
    Gradients from a previous backward call are overwritten.

    The sweep spends the graph: it pops one entry at a time, so each
    entry's output, inputs and rule are dropped once the rule has run,
    and a second backward on the same graph is a UsageError.  An op
    output's gradient is final once its entry is reached, so it is set
    on that tensor then and freed with it; leaf gradients are set last.
    """
    if loss.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")
    ops, graph.ops = graph.ops, None
    if ops is None:
        raise UsageError("this graph was spent by an earlier backward; record a new one")
    grads = {id(loss): np.ones_like(loss.array)}
    holders = {id(loss): loss}  # every tensor whose grad is still in grads
    sums = set()  # ids whose grad is a sum this loop allocated, and no piece aliases
    while ops:
        out, inputs, backward_fn = ops.pop()
        key = id(out)
        g = grads.pop(key, None)
        if g is None:
            continue
        del holders[key]
        out.grad = g
        for t, piece in zip(inputs, backward_fn(g)):
            if piece is None:
                continue
            key = id(t)
            have = grads.get(key)
            if have is None:
                grads[key] = piece
            elif key in sums:
                np.add(have, piece, out=have)
            else:
                # pieces may alias the output grad or each other, so the
                # first sum is a new array; later pieces add into it
                grads[key] = have = have + piece
                if have.ndim:  # a 0-d sum is a NumPy scalar, not a buffer
                    sums.add(key)
            holders[key] = t
    for key, t in holders.items():
        t.grad = grads[key]


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.  2D x 2D, batched x 2D, or batched x batched with
    identical leading dimensions.  Inside RowInvariant a 2D x 2D
    product runs row by row.
    """
    av, bv = a.array, b.array
    ok = (
        av.ndim >= 2
        and bv.ndim >= 2
        and av.shape[-1] == bv.shape[-2]
        and (bv.ndim == 2 or av.shape[:-2] == bv.shape[:-2])
    )
    if not ok:
        raise DimensionError(f"matmul shapes incompatible: {av.shape} @ {bv.shape}")
    if _row_scopes and av.ndim == 2:
        values = np.matmul(av[:, None, :], bv)[:, 0, :]
    else:
        values = np.matmul(av, bv)
    _finite_or_raise(values, "matmul")

    def bwd(g):
        da = np.matmul(g, np.swapaxes(bv, -1, -2))
        if bv.ndim == 2 and av.ndim > 2:
            db = np.tensordot(av, g, axes=(tuple(range(av.ndim - 1)), tuple(range(g.ndim - 1))))
        else:
            db = np.matmul(np.swapaxes(av, -1, -2), g)
        return da, db

    return _emit(values, (a, b), bwd)


def conv1d(x: Tensor, w: Tensor, b: Tensor, padding: str = "valid") -> Tensor:
    """Correlation along the time axis with full channel mixing.

    ``x`` is (T, D) or (batch, T, D); ``w`` is (k, D, F); ``b`` is (F,).
    Output length is T - k + 1 for valid padding, T for same padding
    (zero-padded, the extra zero at the end when k is even).  The result
    is the pre-activation sum; apply relu separately.
    """
    if padding not in ("valid", "same"):
        raise UsageError(f"padding must be 'valid' or 'same', got {padding!r}")
    xv, wv, bv = x.array, w.array, b.array
    if wv.ndim != 3 or xv.ndim not in (2, 3) or bv.ndim != 1:
        raise DimensionError(
            f"conv1d expects x (T,D) or (B,T,D), w (k,D,F), b (F); got {xv.shape}, {wv.shape}, {bv.shape}"
        )
    squeeze = xv.ndim == 2
    x3 = xv[None] if squeeze else xv
    k, d, f = wv.shape
    if x3.shape[-1] != d or bv.shape[0] != f:
        raise DimensionError(
            f"conv1d channel mismatch: x {xv.shape}, w {wv.shape}, b {bv.shape}"
        )
    t = x3.shape[1]
    if padding == "same":
        left = (k - 1) // 2
        xp = np.pad(x3, ((0, 0), (left, k - 1 - left), (0, 0)))
    else:
        if k > t:
            raise DimensionError(f"conv1d kernel {k} longer than input length {t}")
        left = 0
        xp = x3
    windows = sliding_window_view(xp, k, axis=1)  # (B, T', D, k)
    values = np.einsum("btdj,jdf->btf", windows, wv) + bv
    _finite_or_raise(values, "conv1d")
    tp = values.shape[1]
    if squeeze:
        values = values[0]

    def bwd(g):
        g3 = g[None] if squeeze else g
        dw = np.einsum("btdj,btf->jdf", windows, g3)
        db = g3.sum(axis=(0, 1))
        dxp = np.zeros_like(xp)
        for j in range(k):
            dxp[:, j : j + tp, :] += np.matmul(g3, wv[j].T)
        dx = dxp[:, left : left + t, :]
        return (dx[0] if squeeze else dx), dw, db

    return _emit(values, (x, w, b), bwd)


def relu(x: Tensor) -> Tensor:
    """max(0, x); the gradient at exactly 0 is taken to be 0."""
    xv = x.array
    values = np.maximum(xv, 0.0)
    return _emit(values, (x,), lambda g: (g * (xv > 0.0),))


def sigmoid(x: Tensor) -> Tensor:
    """Logistic function from e = exp(-|x|), which cannot overflow:
    1 / (1 + e) where x >= 0, e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(x.array))
    values = np.where(x.array >= 0, 1.0, e) / (1.0 + e)
    return _emit(values, (x,), lambda g: (g * values * (1.0 - values),))


def tanh(x: Tensor) -> Tensor:
    values = np.tanh(x.array)
    return _emit(values, (x,), lambda g: (g * (1.0 - values * values),))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add needs equal shapes, got {a.shape} and {b.shape}")
    values = _finite_or_raise(a.array + b.array, "add")
    return _emit(values, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul needs equal shapes, got {a.shape} and {b.shape}")
    av, bv = a.array, b.array
    values = _finite_or_raise(av * bv, "mul")
    return _emit(values, (a, b), lambda g: (g * bv, g * av))


def concat(tensors) -> Tensor:
    """Concatenate along the last axis; all other extents must agree."""
    tensors = list(tensors)
    if not tensors:
        raise UsageError("concat needs at least one tensor")
    lead = tensors[0].shape[:-1]
    for t in tensors[1:]:
        if t.shape[:-1] != lead:
            raise DimensionError(
                f"concat needs equal leading shapes, got {[t.shape for t in tensors]}"
            )
    values = np.concatenate([t.array for t in tensors], axis=-1)
    bounds = [0, *accumulate(t.shape[-1] for t in tensors)]

    def bwd(g):
        return tuple(g[..., a:b] for a, b in zip(bounds, bounds[1:]))

    return _emit(values, tuple(tensors), bwd)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, with max subtraction for stability."""
    xv = x.array
    shifted = xv - xv.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    values = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * values).sum(axis=-1, keepdims=True)
        return (values * (g - inner),)

    return _emit(values, (x,), bwd)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector along the last axis of x."""
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise DimensionError(f"bias_add needs x (...,{b.shape}), got {x.shape} and {b.shape}")
    values = _finite_or_raise(x.array + b.array, "bias_add")
    lead = tuple(range(x.ndim - 1))
    return _emit(values, (x, b), lambda g: (g, g.sum(axis=lead) if lead else g))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a constant."""
    c = float(c)
    values = _finite_or_raise(x.array * c, "scale")
    return _emit(values, (x,), lambda g: (g * c,))


def channel_affine(x: Tensor, shift, scale) -> Tensor:
    """(x - shift) / scale along the last axis.

    ``shift`` and ``scale`` are constant arrays, not tensors: they get no
    gradient, and d out / d x is 1 / scale.
    """
    shift = np.asarray(shift, dtype=np.float64)
    scale_arr = np.asarray(scale, dtype=np.float64)
    if shift.ndim != 1 or shift.shape != scale_arr.shape or x.shape[-1] != shift.shape[0]:
        raise DimensionError(
            f"channel_affine needs vectors matching the last axis of {x.shape},"
            f" got {shift.shape} and {scale_arr.shape}"
        )
    if np.any(scale_arr == 0.0):
        raise UsageError("channel_affine scale entries must be nonzero")
    values = _finite_or_raise((x.array - shift) / scale_arr, "channel_affine")
    return _emit(values, (x,), lambda g: (g / scale_arr,))


def swap_last_axes(x: Tensor) -> Tensor:
    if x.ndim < 2:
        raise DimensionError(f"swap_last_axes needs ndim >= 2, got {x.shape}")
    values = np.swapaxes(x.array, -1, -2)
    return _emit(values, (x,), lambda g: (np.swapaxes(g, -1, -2),))


def time_slice(x: Tensor, t: int) -> Tensor:
    """Select step t from a (..., T, D) sequence, yielding (..., D)."""
    if x.ndim < 2:
        raise DimensionError(f"time_slice needs ndim >= 2, got {x.shape}")
    steps = x.shape[-2]
    if not 0 <= t < steps:
        raise UsageError(f"step {t} out of range for {steps} steps")
    values = x.array[..., t, :]

    def bwd(g):
        dx = np.zeros_like(x.array)
        dx[..., t, :] = g
        return (dx,)

    return _emit(values, (x,), bwd)


def time_stack(tensors) -> Tensor:
    """Stack T tensors of shape (..., D) into a (..., T, D) sequence."""
    tensors = list(tensors)
    if not tensors:
        raise UsageError("time_stack needs at least one tensor")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise DimensionError(
                f"time_stack needs equal shapes, got {[t.shape for t in tensors]}"
            )
    values = np.stack([t.array for t in tensors], axis=-2)

    def bwd(g):
        return tuple(np.moveaxis(g, -2, 0))

    return _emit(values, tuple(tensors), bwd)


def time_mean(x: Tensor) -> Tensor:
    """Mean over the next-to-last axis: (..., T, D) -> (..., D)."""
    if x.ndim < 2:
        raise DimensionError(f"time_mean needs ndim >= 2, got {x.shape}")
    steps = x.shape[-2]
    values = x.array.mean(axis=-2)

    def bwd(g):
        return (np.repeat(np.expand_dims(g, -2), steps, axis=-2) / steps,)

    return _emit(values, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    """Scalar sum of all elements."""
    values = np.asarray(x.array.sum())
    return _emit(values, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


_LOG_FLOOR = 1e-12


def nll_loss(probs: Tensor, labels) -> Tensor:
    """Mean negative log probability of the given class labels.

    ``probs`` is (n, C) or (C,); probabilities below 1e-12 are clamped
    before the log (the clamped region contributes zero gradient).
    """
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    pv = probs.array
    squeeze = pv.ndim == 1
    p2 = pv[None] if squeeze else pv
    if p2.ndim != 2 or labels.shape != (p2.shape[0],):
        raise DimensionError(
            f"nll_loss needs probs (n,C) with n labels, got {pv.shape} and {labels.shape}"
        )
    if labels.min() < 0 or labels.max() >= p2.shape[1]:
        raise UsageError(f"labels out of range for {p2.shape[1]} classes")
    n = p2.shape[0]
    picked = p2[np.arange(n), labels]
    clamped = np.maximum(picked, _LOG_FLOOR)
    values = np.asarray(-np.log(clamped).mean())

    def bwd(g):
        dp = np.zeros_like(p2)
        live = picked > _LOG_FLOOR
        dp[np.arange(n)[live], labels[live]] = -float(g) / (n * picked[live])
        return (dp[0] if squeeze else dp,)

    return _emit(values, (probs,), bwd)


# ---------------------------------------------------------------------------
# gradient checking

_KINK_TOL = 0.03


def grad_check(f, point: Tensor, step: float) -> float:
    """Max relative error between the analytic gradient of the scalar
    function ``f`` at ``point`` and central finite differences with the
    given step.

    The relative error per coordinate is |analytic - numeric| divided by
    max(1, |analytic|, |numeric|).  Coordinates where the one-sided
    difference quotients disagree by more than a few percent (relative)
    are excluded: those sit on a kink, where no two-sided derivative
    exists.  Exclusion looks only at function values, so it cannot mask a
    wrong analytic gradient at a smooth point.
    """
    if step <= 0:
        raise UsageError(f"step must be positive, got {step}")
    with Graph() as g:
        loss = f(point)
    backward(g, loss)
    if point.grad is None:
        raise UsageError("f does not depend on the given point")
    analytic = point.grad.reshape(-1).copy()

    base = point.array.reshape(-1)
    f0 = _eval_scalar(f, base, point.shape)
    worst = 0.0
    for i in range(base.size):
        up = base.copy()
        up[i] += step
        down = base.copy()
        down[i] -= step
        fu = _eval_scalar(f, up, point.shape)
        fd = _eval_scalar(f, down, point.shape)
        fwd = (fu - f0) / step
        bwd_ = (f0 - fd) / step
        if abs(fwd - bwd_) / max(1.0, abs(fwd), abs(bwd_)) > _KINK_TOL:
            continue
        numeric = (fu - fd) / (2.0 * step)
        err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]), abs(numeric))
        worst = max(worst, err)
    return worst


def _eval_scalar(f, flat, shape):
    out = f(Tensor(flat.reshape(shape)))
    if out.size != 1:
        raise UsageError(f"grad_check needs a scalar function, got shape {out.shape}")
    value = out.item()
    if not np.isfinite(value):
        raise NumericError("grad_check function evaluated to a non-finite value")
    return value
