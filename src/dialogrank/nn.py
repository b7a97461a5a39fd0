"""Dense numeric kernels with hand-written forward and backward passes.

Everything runs in float64 on contiguous numpy arrays (the "tensor buffer"
substrate: shape + row-major values). Layers follow a functional cache
pattern: ``forward``/``encode`` returns ``(output, cache)`` and
``backward(cache, upstream)`` accumulates parameter gradients and returns the
input gradient, so one layer object can appear many times in one step.

The LSTM runs a packed, time-major batch (PyTorch's ``PackedSequence``):
N sequences sorted longest first, ``batch_sizes[t]`` of them running at step
t, rows ``xs`` [S, E] holding step 0 of each, then step 1, and so on. The
input projection is one GEMM, each step after the first one GEMM over its
running rows (both on fixed row blocks of the caller's height in eval,
``project``), and backward ends with one weight-gradient GEMM. The initial
state is zero, so step 0 has no hidden product in forward and no ``dh`` product
in backward. In eval neither the LSTM nor batch norm keeps a backward cache.
Gate order is input, forget, output, candidate; the forget-gate bias starts at
1.0, every other at 0.

Adam sweeps each parameter once, in cache-sized blocks of ``BLOCK`` elements
with the grad zeroing folded in; per element it is bitwise the whole-array update.
Only its learning rate is set; ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPSILON``
are constants, and so are batch norm's ``BN_MOMENTUM`` and ``BN_EPSILON``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite

import numpy as np


def ensure_finite(name: str, arr) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {name}")


_KEEP_ADAM_STATE = ContextVar("keep_adam_state", default=True)


@contextmanager
def keep_adam_state(keep: bool):
    """Parameters made inside this block hold Adam moments only if ``keep``. The flag
    is context-local, so a model built in another thread meanwhile is not affected."""
    token = _KEEP_ADAM_STATE.set(keep)
    try:
        yield
    finally:
        _KEEP_ADAM_STATE.reset(token)


class Parameter:
    """A value array with its gradient and its Adam moments ``m`` and ``v``.

    The buffers come from ``np.zeros`` (calloc), so their pages stay unmapped
    zero pages until first written: an eval-only process never maps its
    gradients. A parameter made for inference (``keep_adam_state(False)``, as
    ``checkpoint.load_checkpoint`` does by default) holds no moments: ``m`` and
    ``v`` are ``None``, and ``adam_step`` and ``save_checkpoint`` refuse it
    (``require_adam_state``)."""

    def __init__(self, value, name: str = "param"):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros(self.value.shape)
        self.m = self.v = None
        if _KEEP_ADAM_STATE.get():
            self.m = np.zeros(self.value.shape)
            self.v = np.zeros(self.value.shape)
        self.step_count = 0
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self) -> int:
        return self.value.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


def he_normal_init(param: Parameter, fan_in: int, rng: np.random.Generator) -> None:
    """Fill ``param`` with N(0, 2/fan_in) samples drawn from ``rng``."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    param.value[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=param.shape)


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba (2015) defaults
BN_MOMENTUM, BN_EPSILON = 0.1, 1e-5  # running-statistics momentum; added to the variance


@dataclass
class AdamConfig:
    learning_rate: float = 1e-3

    def __post_init__(self):
        if not (isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


BLOCK = 1 << 15  # elements per block of the blocked kernels: 256 KB of float64
ROWS = 100  # rows per eval block of candidate rows and history.combine (``project``): one round
SEQ_ROWS = 32  # rows per eval block of the option and history LSTMs' products (``project``)
MEMO_BYTES = 64 << 20  # bytes a frozen model's encoders.EncodingMemo may charge its entries


def require_adam_state(params) -> None:
    """Raise ``ValueError`` naming the first parameter that holds no Adam moments."""
    for p in params:
        if p.m is None or p.v is None:
            raise ValueError(
                f"parameter {p.name} holds no Adam state: its checkpoint was loaded for "
                "inference; load it with load_checkpoint(path, adam_state=True) to train "
                "or save it")


def adam_step(params, cfg: AdamConfig) -> None:
    """In-place bias-corrected Adam, grad as scratch, zeroing grads. Every ufunc runs on
    one block of ``BLOCK`` elements of the flat views (parameter arrays are C-contiguous)
    before the next block, so each array streams through memory once; each ufunc rounds
    per element, so the result is bitwise that of the same ufuncs over whole arrays.
    Every parameter is checked for its moments before any is updated."""
    params = list(params)
    require_adam_state(params)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for p in params:
        t = p.step_count + 1
        flat = [a.reshape(-1) for a in (p.grad, p.m, p.v, p.value)]
        for i in range(0, p.size, BLOCK):
            g, m, v, value = (a[i : i + BLOCK] for a in flat)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=g)  # g now holds (1 - b1) * grad
            v *= b2
            v += np.multiply(np.square(g, out=g), (1.0 - b2) / (1.0 - b1) ** 2, out=g)
            np.sqrt(np.divide(v, 1.0 - b2**t, out=g), out=g)
            g += ADAM_EPSILON
            g *= (1.0 - b1**t) / cfg.learning_rate
            value -= np.divide(m, g, out=g)  # lr * m_hat / (sqrt(v_hat) + eps)
            g.fill(0.0)
        p.step_count = t


def project(x: np.ndarray, weight: np.ndarray, rows: int | None = None) -> np.ndarray:
    """x @ weight.T. ``rows=None`` (train) is one plain product. Eval passes the block
    height: x is zero-padded to whole blocks of ``rows`` rows (copied only when it is
    not already whole) and runs one ``[rows, in] @ [in, out]`` product per block. BLAS
    gives a row of a fixed-shape product bitwise the same whatever its block-mates and
    position (model.py), so each eval row depends on that row alone. The height is
    chosen by what the rows are, never by how many: 1 for the rows that are one per
    example, ``SEQ_ROWS`` for the LSTM rows of sequences that come many per example,
    ``ROWS`` for candidate rows and ``history.combine``."""
    if rows is None:
        return x @ weight.T
    n = len(x)
    if n % rows:
        x = np.concatenate([x, np.zeros((rows - n % rows, x.shape[1]))])
    out = np.empty((len(x), weight.shape[0]))
    for i in range(0, len(x), rows):
        np.matmul(x[i : i + rows], weight.T, out=out[i : i + rows])
    return out[:n]


class Linear:
    """y = W x + b with W of shape [out, in]."""

    def __init__(self, in_dim: int, out_dim: int, rng=None, name: str = "linear"):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(np.zeros((out_dim, in_dim)), name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_dim), name=f"{name}.bias")
        if rng is not None:
            he_normal_init(self.weight, in_dim, rng)

    def forward(self, x: np.ndarray, rows: int | None = None):
        """x: [B, in] -> [B, out]; eval passes the block height ``rows`` (``project``).
        Returns (y, cache); forward never mutates the layer, so frozen-parameter evaluation
        can run concurrently."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"{self.weight.name}: expected input [B, {self.in_dim}], got {x.shape}"
            )
        y = project(x, self.weight.value, rows) + self.bias.value
        return y, x

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        x = cache
        if dy.shape != (x.shape[0], self.out_dim):
            raise ValueError(f"{self.weight.name}: upstream grad shape {dy.shape} mismatch")
        self.weight.grad += dy.T @ x
        self.bias.grad += dy.sum(axis=0)
        return dy @ self.weight.value

    def parameters(self):
        return [self.weight, self.bias]


class Embedding:
    """Token-id to dense vector lookup; weight columns are word vectors [E, V]."""

    def __init__(self, dim: int, vocab_size: int, rng=None, name: str = "embed"):
        self.vocab_size = vocab_size
        self.weight = Parameter(np.zeros((dim, vocab_size)), name=f"{name}.weight")
        if rng is not None:
            he_normal_init(self.weight, vocab_size, rng)

    def lookup(self, ids):
        """ids: length-T int sequence -> [T, dim]. Returns (vectors, cache)."""
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IndexError(f"{self.weight.name}: token id out of range [0, {self.vocab_size})")
        out = self.weight.value[:, ids].T
        return out, ids

    def backward(self, cache, dout: np.ndarray) -> None:
        ids = cache
        # transposed view so repeated ids accumulate
        np.add.at(self.weight.grad.T, ids, dout)

    def parameters(self):
        return [self.weight]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


class LstmEncoder:
    """Single-layer LSTM; the final hidden state is the sequence embedding."""

    def __init__(self, input_dim: int, hidden_dim: int, rng=None, name: str = "lstm"):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.weight = Parameter(
            np.zeros((4 * hidden_dim, input_dim + hidden_dim)), name=f"{name}.weight"
        )
        bias = np.zeros(4 * hidden_dim)
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget gate opens at init
        self.bias = Parameter(bias, name=f"{name}.bias")
        if rng is not None:
            he_normal_init(self.weight, input_dim + hidden_dim, rng)

    def encode(self, xs: np.ndarray, batch_sizes, rows: int | None = None):
        """Packed rows xs [S, input_dim] -> (h [N, hidden_dim] in packed order, cache).
        Its products run through ``project`` at block height ``rows`` (None in train), so in
        eval each h depends on its own rows alone. Eval's cache is None: it keeps no
        [S, input_dim + hidden_dim] rows and no c_{t-1}, and tanh(c_t) only for the
        running rows of one step."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.input_dim:
            raise ValueError(f"{self.weight.name}: expected [T, {self.input_dim}], got {xs.shape}")
        sizes = [int(n) for n in batch_sizes]
        if sum(sizes) != len(xs) or sizes[-1] < 1 or any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"{self.weight.name}: batch_sizes must be positive, "
                             f"non-increasing and sum to the {len(xs)} packed rows")
        E, L = self.input_dim, self.hidden_dim
        W = self.weight.value
        train = rows is None
        gates = project(xs, W[:, :E], rows) + self.bias.value
        h, c = np.zeros((2, sizes[0], L))  # a finished sequence keeps its last h
        if train:
            xh = np.empty((len(xs), E + L))  # [x_t | h_{t-1}] of every packed row
            xh[:, :E] = xs
            c_prev, tc = np.empty((2, len(xs), L))  # c_{t-1} and tanh(c_t) of every row
        else:
            scratch = np.empty((sizes[0], L))  # tanh(c_t) of the running rows
        for n, end in zip(sizes, accumulate(sizes)):
            r = slice(end - n, end)
            hn, cn, z = h[:n], c[:n], gates[r]  # views of the running rows
            if train:
                xh[r, E:] = hn
                c_prev[r] = cn
            if end > n:  # h_{-1} = 0, so step 0's hidden product is +0
                z += project(hn, W[:, E:], rows)
            z[:, : 3 * L] = _sigmoid(z[:, : 3 * L])
            np.tanh(z[:, 3 * L :], out=z[:, 3 * L :])
            cn *= z[:, L : 2 * L]
            cn += z[:, :L] * z[:, 3 * L :]
            tcn = np.tanh(cn, out=tc[r] if train else scratch[:n])
            np.multiply(z[:, 2 * L : 3 * L], tcn, out=hn)
        ensure_finite(self.weight.name, h)
        return h, ((xh, gates, c_prev, tc, sizes) if train else None)

    def backward(self, cache, dh_last: np.ndarray) -> np.ndarray:
        """Backward through time from dh_last [N, hidden_dim] (encode's h);
        returns the gradient wrt the packed rows [S, input_dim]."""
        xh, gates, c_prev, tc, sizes = cache
        E, L = self.input_dim, self.hidden_dim
        W, Wh = self.weight.value, self.weight.value[:, E:]
        dz = np.empty_like(gates)
        dh = np.array(dh_last, dtype=np.float64).reshape(sizes[0], L)
        dc = np.zeros((sizes[0], L))
        for n, end in zip(sizes[::-1], list(accumulate(sizes))[::-1]):
            r = slice(end - n, end)
            gi, gf, go, gg = (gates[r, k * L : (k + 1) * L] for k in range(4))
            dcn = dc[:n]
            dcn += dh[:n] * go * (1.0 - tc[r] * tc[r])
            dz[r, :L] = dcn * gg * gi * (1.0 - gi)
            dz[r, L : 2 * L] = dcn * c_prev[r] * gf * (1.0 - gf)
            dz[r, 2 * L : 3 * L] = dh[:n] * tc[r] * go * (1.0 - go)
            dz[r, 3 * L :] = dcn * gi * (1.0 - gg * gg)
            if end > n:  # step 0's dh and dc would be those of the zero initial state
                dh[:n] = dz[r] @ Wh
                dcn *= gf
        self.weight.grad += dz.T @ xh
        self.bias.grad += dz.sum(axis=0)
        return dz @ W[:, :E]

    def parameters(self):
        return [self.weight, self.bias]


class BatchNorm1d:
    """Per-feature batch normalization with running statistics.

    Train mode normalizes by the (biased) batch statistics, requires at
    least two rows and updates the running statistics, which it never reads;
    eval mode uses running statistics only, so each row is independent of its
    co-batched rows.
    """

    def __init__(self, dim: int, name: str = "bn"):
        self.dim = dim
        self.name = name
        self.gamma = Parameter(np.ones(dim), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), name=f"{name}.beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, x: np.ndarray, train: bool):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"{self.gamma.name}: expected [B, {self.dim}], got {x.shape}")
        if not train:
            return self.eval_in_place(x.copy()), None
        if x.shape[0] < 2:
            raise ValueError(f"{self.gamma.name}: train mode needs a batch of >= 2 rows")
        mean = x.mean(axis=0)
        var = x.var(axis=0)  # biased
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat = (x - mean) * inv
        m = BN_MOMENTUM
        self.running_mean *= 1.0 - m
        self.running_mean += m * mean
        self.running_var *= 1.0 - m
        self.running_var += m * var
        y = self.gamma.value * xhat + self.beta.value
        ensure_finite(self.gamma.name, y)
        return y, (xhat, inv)

    def eval_in_place(self, x: np.ndarray) -> np.ndarray:
        """Eval mode over the rows x [n, dim], written into x, which it returns. Each
        ufunc rounds per element, so a row block gives bitwise that block of the
        whole array's result."""
        x -= self.running_mean
        x *= 1.0 / np.sqrt(self.running_var + BN_EPSILON)
        x *= self.gamma.value
        x += self.beta.value
        ensure_finite(self.gamma.name, x)
        return x

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        """Backward of a train-mode forward: eval keeps no cache."""
        xhat, inv = cache
        self.gamma.grad += (dy * xhat).sum(axis=0)
        self.beta.grad += dy.sum(axis=0)
        dxhat = dy * self.gamma.value
        n = xhat.shape[0]
        return (inv / n) * (
            n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
        )

    def parameters(self):
        return [self.gamma, self.beta]

    def buffers(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.running_mean": self.running_mean,
                f"{self.name}.running_var": self.running_var}


def relu(x: np.ndarray):
    """Elementwise max(0, x). Returns (y, cache); subgradient at 0 is 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0), x


def relu_backward(cache, dy: np.ndarray) -> np.ndarray:
    return dy * (cache > 0.0)


def softmax_cross_entropy(scores, gt_index: int):
    """Stable log-sum-exp loss against the ground-truth option.

    Returns (loss, score_grads) with score_grads = softmax(scores) - onehot(gt).
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    k = s.size
    if not 0 <= gt_index < k:
        raise IndexError(f"gt_index {gt_index} out of range for {k} scores")
    ensure_finite("scores", s)
    m = s.max()
    e = np.exp(s - m)
    z = e.sum()
    loss = m + np.log(z) - s[gt_index]
    grads = e / z
    grads[gt_index] -= 1.0
    return float(loss), grads


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    n_coordinates: int
    worst_param: str = ""
    worst_index: int = -1
    worst_analytic: float = 0.0
    worst_numeric: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def summary(self) -> str:
        status = "OK" if self.passed else "FAIL"
        return (
            f"gradcheck {status}: max_rel_error={self.max_rel_error:.3e} "
            f"(tolerance {self.tolerance:.1e}, {self.n_coordinates} coordinates, "
            f"worst {self.worst_param}[{self.worst_index}] "
            f"analytic={self.worst_analytic:.6e} numeric={self.worst_numeric:.6e})"
        )


GRADCHECK_STEP, GRADCHECK_FLOOR = 1e-5, 1e-3  # difference step h; least error scale


def grad_check(loss_fn, params, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn(want_grads: bool) -> float`` must be a deterministic scalar
    function of the parameter values; when called with ``want_grads=True`` it
    must also accumulate gradients into each parameter's ``grad`` buffer.
    ``params`` is an iterable of Parameters; the report names each by ``p.name``.

    Each coordinate is judged on |analytic - numeric| relative to
    max(|analytic|, |numeric|, GRADCHECK_FLOOR); the floor keeps float roundoff
    in the twice-recomputed loss (~1e-14, i.e. ~1e-9 after dividing by 2h)
    from dominating coordinates whose true gradient has vanished.
    """
    h = GRADCHECK_STEP
    params = list(params)
    for p in params:
        p.zero_grad()
    loss_fn(True)
    analytic = [p.grad.copy() for p in params]

    report = GradCheckReport(
        max_rel_error=0.0,
        tolerance=tolerance,
        n_coordinates=sum(p.size for p in params),
    )
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        a_flat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(False)
            flat[i] = orig - h
            lm = loss_fn(False)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            a = a_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), GRADCHECK_FLOOR)
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = p.name
                report.worst_index = i
                report.worst_analytic = float(a)
                report.worst_numeric = float(numeric)
    return report
