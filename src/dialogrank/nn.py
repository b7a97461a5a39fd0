"""Dense numeric kernels with hand-written forward and backward passes.

Everything runs in float64 on contiguous numpy arrays (the "tensor buffer"
substrate: shape + row-major values). Layers follow a functional cache
pattern: ``forward``/``encode`` returns ``(output, cache)`` and
``backward(cache, upstream)`` accumulates parameter gradients and returns the
input gradient. This lets a single layer object appear many times inside one
training step (the option encoder alone runs once per candidate).

Gate order inside the LSTM parameter block is input, forget, output,
candidate. The forget-gate bias starts at 1.0, every other bias at 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


def ensure_finite(name: str, arr) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {name}")


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


class Parameter:
    """A value array with paired gradient and Adam moment buffers."""

    def __init__(self, value, name: str = "param"):
        self.value = as_f64(value)
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
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


def he_normal_init(param: Parameter, fan_in: int, rng) -> None:
    """Fill ``param`` with N(0, 2/fan_in) samples from a seeded generator."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    gen = _rng(rng)
    param.value[...] = gen.normal(0.0, np.sqrt(2.0 / fan_in), size=param.shape)


@dataclass
class AdamConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")


def adam_step(params, cfg: AdamConfig) -> None:
    """Bias-corrected Adam update on every parameter; zeroes grads afterwards."""
    for p in params:
        t = p.step_count + 1
        g = p.grad
        p.m *= cfg.beta1
        p.m += (1.0 - cfg.beta1) * g
        p.v *= cfg.beta2
        p.v += (1.0 - cfg.beta2) * g * g
        m_hat = p.m / (1.0 - cfg.beta1**t)
        v_hat = p.v / (1.0 - cfg.beta2**t)
        p.value -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        p.step_count = t
        p.zero_grad()


class Linear:
    """y = W x + b with W of shape [out, in]."""

    def __init__(self, in_dim: int, out_dim: int, rng=None, name: str = "linear"):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(np.zeros((out_dim, in_dim)), name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_dim), name=f"{name}.bias")
        if rng is not None:
            he_normal_init(self.weight, in_dim, rng)

    def forward(self, x: np.ndarray):
        """x: [B, in] -> [B, out]. Returns (y, cache); forward never mutates
        the layer, so frozen-parameter evaluation can run concurrently."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"{self.weight.name}: expected input [B, {self.in_dim}], got {x.shape}"
            )
        y = x @ self.weight.value.T + self.bias.value
        return y, x

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        if cache is None:
            raise RuntimeError(
                f"{self.weight.name}: backward called before forward (no cache)")
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
        self.dim = dim
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

    def encode(self, xs: np.ndarray):
        """xs: [T, input_dim] -> final hidden state [hidden_dim]. Returns (h, cache)."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.input_dim:
            raise ValueError(f"{self.weight.name}: expected [T, {self.input_dim}], got {xs.shape}")
        steps = xs.shape[0]
        if steps < 1:
            raise ValueError(f"{self.weight.name}: cannot encode an empty sequence")
        L = self.hidden_dim
        W, b = self.weight.value, self.bias.value
        h = np.zeros(L)
        c = np.zeros(L)
        xh = np.empty((steps, self.input_dim + L))
        gi = np.empty((steps, L))
        gf = np.empty((steps, L))
        go = np.empty((steps, L))
        gg = np.empty((steps, L))
        c_prev = np.empty((steps, L))
        tc = np.empty((steps, L))
        for t in range(steps):
            xh[t, : self.input_dim] = xs[t]
            xh[t, self.input_dim :] = h
            z = W @ xh[t] + b
            gi[t] = _sigmoid(z[:L])
            gf[t] = _sigmoid(z[L : 2 * L])
            go[t] = _sigmoid(z[2 * L : 3 * L])
            gg[t] = np.tanh(z[3 * L :])
            c_prev[t] = c
            c = gf[t] * c + gi[t] * gg[t]
            tc[t] = np.tanh(c)
            h = go[t] * tc[t]
        ensure_finite(self.weight.name, h)
        return h, (xh, gi, gf, go, gg, c_prev, tc)

    def backward(self, cache, dh_last: np.ndarray) -> np.ndarray:
        """Backward through time; returns gradient wrt the input sequence [T, input_dim]."""
        xh, gi, gf, go, gg, c_prev, tc = cache
        steps = xh.shape[0]
        E, L = self.input_dim, self.hidden_dim
        W = self.weight.value
        dW = self.weight.grad
        db = self.bias.grad
        dxs = np.empty((steps, E))
        dh = np.array(dh_last, dtype=np.float64, copy=True)
        dc = np.zeros(L)
        dz = np.empty(4 * L)
        for t in range(steps - 1, -1, -1):
            do = dh * tc[t]
            dc += dh * go[t] * (1.0 - tc[t] * tc[t])
            di = dc * gg[t]
            df = dc * c_prev[t]
            dg = dc * gi[t]
            dz[:L] = di * gi[t] * (1.0 - gi[t])
            dz[L : 2 * L] = df * gf[t] * (1.0 - gf[t])
            dz[2 * L : 3 * L] = do * go[t] * (1.0 - go[t])
            dz[3 * L :] = dg * (1.0 - gg[t] * gg[t])
            dW += np.outer(dz, xh[t])
            db += dz
            dxh = W.T @ dz
            dxs[t] = dxh[:E]
            dh = dxh[E:]
            dc *= gf[t]
        return dxs

    def parameters(self):
        return [self.weight, self.bias]


class BatchNorm1d:
    """Per-feature batch normalization with running statistics.

    Train mode normalizes by the (biased) batch statistics and requires at
    least two rows; eval mode uses running statistics only, so each row is
    independent of its co-batched rows.
    """

    def __init__(self, dim: int, momentum: float = 0.1, epsilon: float = 1e-5,
                 name: str = "bn"):
        self.dim = dim
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma = Parameter(np.ones(dim), name=f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), name=f"{name}.beta")
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, x: np.ndarray, train: bool, update_running: bool = True):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"{self.gamma.name}: expected [B, {self.dim}], got {x.shape}")
        if train:
            if x.shape[0] < 2:
                raise ValueError(f"{self.gamma.name}: train mode needs a batch of >= 2 rows")
            mean = x.mean(axis=0)
            var = x.var(axis=0)  # biased
            inv = 1.0 / np.sqrt(var + self.epsilon)
            xhat = (x - mean) * inv
            if update_running:
                m = self.momentum
                self.running_mean *= 1.0 - m
                self.running_mean += m * mean
                self.running_var *= 1.0 - m
                self.running_var += m * var
        else:
            inv = 1.0 / np.sqrt(self.running_var + self.epsilon)
            xhat = (x - self.running_mean) * inv
        y = self.gamma.value * xhat + self.beta.value
        ensure_finite(self.gamma.name, y)
        return y, (xhat, inv, train)

    def backward(self, cache, dy: np.ndarray) -> np.ndarray:
        xhat, inv, train = cache
        self.gamma.grad += (dy * xhat).sum(axis=0)
        self.beta.grad += dy.sum(axis=0)
        dxhat = dy * self.gamma.value
        if not train:
            return dxhat * inv
        n = xhat.shape[0]
        return (inv / n) * (
            n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
        )

    def parameters(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}


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
    per_param: dict = field(default_factory=dict)

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


def grad_check(loss_fn, params, h: float = 1e-5, tolerance: float = 1e-4,
               scale_floor: float = 1e-3) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn(want_grads: bool) -> float`` must be a deterministic scalar
    function of the parameter values; when called with ``want_grads=True`` it
    must also accumulate gradients into each parameter's ``grad`` buffer.
    ``params`` is a mapping name -> Parameter or an iterable of Parameters.

    Each coordinate is judged on |analytic - numeric| relative to
    max(|analytic|, |numeric|, scale_floor); the floor keeps float roundoff
    in the twice-recomputed loss (~1e-14, i.e. ~1e-9 after dividing by 2h)
    from dominating coordinates whose true gradient has vanished.
    """
    if isinstance(params, dict):
        named = list(params.items())
    else:
        named = [(p.name, p) for p in params]
    for _, p in named:
        p.zero_grad()
    loss_fn(True)
    analytic = {name: p.grad.copy() for name, p in named}

    report = GradCheckReport(
        max_rel_error=0.0,
        tolerance=tolerance,
        n_coordinates=sum(p.size for _, p in named),
    )
    for name, p in named:
        flat = p.value.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(False)
            flat[i] = orig - h
            lm = loss_fn(False)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            a = a_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), scale_floor)
            if rel > worst:
                worst = rel
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = name
                report.worst_index = i
                report.worst_analytic = float(a)
                report.worst_numeric = float(numeric)
        report.per_param[name] = worst
    return report
