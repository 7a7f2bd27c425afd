"""Feed-forward networks with exact reverse-mode gradients, including the
second-order sweep needed by the Lipschitz gradient penalty, plus the binary
checkpoint format.

Shape conventions: batches are row-major, weights are (out, in), and the flat
parameter vector of a network concatenates each layer's weights (row-major)
followed by its bias, in layer order. Each network stores its parameters in
one contiguous float64 buffer in that order (`params`); layer weights and
biases are views into it.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DatasetFormatError, InvalidInputError, InvalidStateError
from .numerics import RngStream

ACTIVATIONS = ("identity", "relu", "leaky_relu")

# negative-side slope of every hidden leaky-relu layer the builders make; the
# generator's output layer is a relu (features are nonnegative)
HIDDEN_SLOPE = 0.2


def _act(name: str, z: np.ndarray, slope: float) -> np.ndarray:
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "leaky_relu":
        return np.where(z > 0.0, z, slope * z)
    raise InvalidInputError(f"unknown activation {name!r}")


def _act_d(name: str, z: np.ndarray, slope: float):
    """Derivative at `z` (identity's is the scalar 1). Every activation is
    piecewise linear, so no sweep needs a second derivative."""
    if name == "identity":
        return 1.0
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    return np.where(z > 0.0, 1.0, slope)


@dataclass
class Layer:
    weight: np.ndarray
    bias: np.ndarray
    activation: str = "identity"
    slope: float = 0.0

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.activation not in ACTIVATIONS:
            raise InvalidInputError(f"unknown activation {self.activation!r}")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise InvalidInputError(
                f"layer shape mismatch: weight {self.weight.shape}, bias {self.bias.shape}")


@dataclass
class MlpCache:
    """Each layer's input `hs[i]` (the output last) and pre-activation `zs[i]`;
    the sweeps share the activation derivatives `ds`, computed on first use."""

    hs: list[np.ndarray]
    zs: list[np.ndarray]
    version: int
    ds: list | None = None

    @property
    def x(self) -> np.ndarray:
        return self.hs[0]

    def rows(self, sel: slice) -> "MlpCache":
        """The cache of the forward pass over the rows `sel` alone."""
        return MlpCache(hs=[h[sel] for h in self.hs], zs=[z[sel] for z in self.zs],
                        version=self.version)


class MlpNetwork:
    """A plain fully-connected network over float64 rows."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise InvalidInputError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weight.shape[0] != b.weight.shape[1]:
                raise InvalidInputError(
                    f"layer dims do not chain: {a.weight.shape} -> {b.weight.shape}")
        self.layers = layers
        self._version = 0
        self._bind(np.empty(sum(l.weight.size + l.bias.size for l in layers)))

    def _views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views of each layer's slice of a parameter-sized vector."""
        views, i = [], 0
        for l in self.layers:
            n_out, n_in = l.weight.shape
            j = i + n_out * n_in
            views.append((flat[i:j].reshape(n_out, n_in), flat[j:j + n_out]))
            i = j + n_out
        return views

    def _bind(self, params: np.ndarray) -> None:
        """Copy the parameters into `params` and make the layers views of it."""
        for l, (w, b) in zip(self.layers, self._views(params)):
            w[...] = l.weight
            b[...] = l.bias
            l.weight, l.bias = w, b
        self.params = params

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    @property
    def n_params(self) -> int:
        return self.params.size

    def param_vector(self) -> np.ndarray:
        return self.params.copy()

    def set_param_vector(self, theta: np.ndarray) -> None:
        _copy_params(self.params, theta, "network")
        self.params_changed()

    def params_changed(self) -> None:
        """Record an in-place write to `params`: older forward caches go stale."""
        self._version += 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = np.atleast_2d(x)
        if h.shape[1] != self.in_dim:
            raise InvalidInputError(
                f"input has dim {h.shape[1]}, network expects {self.in_dim}")
        hs, zs = [h], []
        for l in self.layers:
            zs.append(h @ l.weight.T + l.bias)
            h = _act(l.activation, zs[-1], l.slope)
            hs.append(h)
        cache = MlpCache(hs=hs, zs=zs, version=self._version)
        return (h[0] if squeeze else h), cache

    def _derivatives(self, cache: MlpCache) -> list:
        """The activation derivatives of a current cache of this network."""
        if cache.version != self._version:
            raise InvalidStateError(
                "forward cache is stale: parameters changed since the forward pass")
        if len(cache.zs) != len(self.layers):
            raise InvalidStateError("forward cache does not match this network")
        if cache.ds is None:
            cache.ds = [_act_d(l.activation, z, l.slope)
                        for l, z in zip(self.layers, cache.zs)]
        return cache.ds

    def backward(self, cache: MlpCache, d_out: np.ndarray,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Exact gradients of sum(d_out * output) w.r.t. parameters and input.

        The parameter gradient is written into `out` when given.
        """
        ds = self._derivatives(cache)
        d = np.atleast_2d(np.asarray(d_out, dtype=np.float64))
        if d.shape != cache.hs[-1].shape:
            raise InvalidStateError(
                f"output gradient shape {d.shape} does not match cached output "
                f"{cache.hs[-1].shape}")
        flat = np.empty(self.n_params) if out is None else out
        grads = self._views(flat)
        for i in range(len(self.layers) - 1, -1, -1):
            dz = d * ds[i]
            np.matmul(dz.T, cache.hs[i], out=grads[i][0])
            dz.sum(axis=0, out=grads[i][1])
            d = dz @ self.layers[i].weight
        d_in = d[0] if np.asarray(d_out).ndim == 1 else d
        return flat, d_in

    def input_grad_rows(self, cache: MlpCache, select: np.ndarray) -> np.ndarray:
        """Per-row gradient of <select, output> w.r.t. the input rows."""
        ds = self._derivatives(cache)
        u = np.broadcast_to(select, cache.hs[-1].shape)
        for l, d in zip(reversed(self.layers), reversed(ds)):
            u = (u * d) @ l.weight
        return u

    def grad_of_input_grad(self, cache: MlpCache, select: np.ndarray,
                           v: np.ndarray) -> np.ndarray:
        """Parameter gradient of sum_rows <v_row, d(<select, output>)/d input_row>.

        Forward-over-reverse on a piecewise-linear network (its measure-zero
        kinks ignored): a tangent pass pushes v through the linearized network;
        each layer's weight gradient is the reverse `select` adjoint at its
        pre-activation times its input tangent, and its bias gradient is zero.
        """
        ds = self._derivatives(cache)
        h_dot = [np.atleast_2d(np.asarray(v, dtype=np.float64))]
        for l, d in zip(self.layers[:-1], ds):
            h_dot.append(d * (h_dot[-1] @ l.weight.T))
        flat = np.zeros(self.n_params)
        grads = self._views(flat)
        bar = np.broadcast_to(select, cache.hs[-1].shape)
        for i in range(len(self.layers) - 1, -1, -1):
            bar = bar * ds[i]
            np.matmul(bar.T, h_dot[i], out=grads[i][0])
            if i:
                bar = bar @ self.layers[i].weight
        return flat


def _copy_params(params: np.ndarray, theta: np.ndarray, what: str) -> None:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != params.shape:
        raise InvalidInputError(
            f"parameter vector has {theta.size} entries, {what} expects {params.size}")
    params[...] = theta


def glorot_layer(rng: RngStream, in_dim: int, out_dim: int,
                 activation: str, slope: float = 0.0) -> Layer:
    """Uniform [-s, s] init with s = sqrt(6 / (fan_in + fan_out))."""
    s = np.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform(-s, s, (out_dim, in_dim))
    return Layer(weight=w, bias=np.zeros(out_dim), activation=activation, slope=slope)


# --------------------------------------------------------------------------
# Generator: semantic descriptor -> noise-suppressing embed layer -> concat
# with Gaussian noise -> trunk -> visual feature vector.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorArch:
    text_dim: int
    noise_dim: int
    output_dim: int
    embed_dim: int = 64
    hidden_dims: tuple[int, ...] = (128,)

    def validate(self) -> "GeneratorArch":
        dims = (self.text_dim, self.output_dim, self.embed_dim, *self.hidden_dims)
        if any(d < 1 for d in dims) or self.noise_dim < 0:
            raise InvalidInputError(f"generator dims must be positive: {self}")
        return self


@dataclass
class GeneratorCache:
    embed: MlpCache
    trunk: MlpCache


class Generator:
    """Conditional feature generator x = G(t, z)."""

    def __init__(self, embed: MlpNetwork, trunk: MlpNetwork, noise_dim: int):
        if embed.out_dim + noise_dim != trunk.in_dim:
            raise InvalidInputError(
                f"embed out {embed.out_dim} + noise {noise_dim} != trunk in {trunk.in_dim}")
        self.embed = embed
        self.trunk = trunk
        self.noise_dim = noise_dim
        # one buffer: embed parameters, then trunk parameters
        self.params = np.empty(embed.n_params + trunk.n_params)
        embed._bind(self.params[:embed.n_params])
        trunk._bind(self.params[embed.n_params:])

    @property
    def text_dim(self) -> int:
        return self.embed.in_dim

    @property
    def output_dim(self) -> int:
        return self.trunk.out_dim

    @property
    def n_params(self) -> int:
        return self.params.size

    def param_vector(self) -> np.ndarray:
        return self.params.copy()

    def set_param_vector(self, theta: np.ndarray) -> None:
        _copy_params(self.params, theta, "generator")
        self.params_changed()

    def params_changed(self) -> None:
        self.embed.params_changed()
        self.trunk.params_changed()

    def forward(self, t: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.forward_cached(t, z)[0]

    def forward_cached(self, t: np.ndarray, z: np.ndarray):
        t = np.asarray(t, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        squeeze = t.ndim == 1
        t2, z2 = np.atleast_2d(t), np.atleast_2d(z)
        if z2.shape != (t2.shape[0], self.noise_dim):
            raise InvalidInputError(
                f"noise shape {z.shape} does not match batch {t2.shape[0]} x {self.noise_dim}")
        e, e_cache = self.embed.forward_cached(t2)
        h = np.concatenate([e, z2], axis=1)
        x, t_cache = self.trunk.forward_cached(h)
        cache = GeneratorCache(embed=e_cache, trunk=t_cache)
        return (x[0] if squeeze else x), cache

    def backward(self, cache: GeneratorCache, d_out: np.ndarray):
        """Gradients of sum(d_out * output): (flat params, d_t, d_z)."""
        d = np.atleast_2d(np.asarray(d_out, dtype=np.float64))
        flat = np.empty(self.n_params)
        ne = self.embed.n_params
        _, d_h = self.trunk.backward(cache.trunk, d, out=flat[ne:])
        e_dim = self.embed.out_dim
        _, d_t = self.embed.backward(cache.embed, d_h[:, :e_dim], out=flat[:ne])
        return flat, d_t, d_h[:, e_dim:]


def build_generator(arch: GeneratorArch, rng: RngStream) -> Generator:
    arch.validate()
    embed = MlpNetwork([glorot_layer(rng, arch.text_dim, arch.embed_dim,
                                     "leaky_relu", HIDDEN_SLOPE)])
    dims = (arch.embed_dim + arch.noise_dim, *arch.hidden_dims, arch.output_dim)
    layers = []
    for i in range(len(dims) - 1):
        last = i == len(dims) - 2
        layers.append(glorot_layer(rng, dims[i], dims[i + 1],
                                   "relu" if last else "leaky_relu",
                                   0.0 if last else HIDDEN_SLOPE))
    return Generator(embed=embed, trunk=MlpNetwork(layers), noise_dim=arch.noise_dim)


# --------------------------------------------------------------------------
# Discriminator: shared trunk, then one linear layer holding both heads:
# column 0 is the raw critic score, the rest are seen-class logits.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscriminatorArch:
    input_dim: int
    n_classes: int
    hidden_dims: tuple[int, ...] = (128,)

    def validate(self) -> "DiscriminatorArch":
        if self.input_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise InvalidInputError(f"discriminator dims must be positive: {self}")
        if self.n_classes < 2:
            raise InvalidInputError(f"need at least 2 seen classes, got {self.n_classes}")
        return self


class Discriminator:
    """Two-headed critic: raw realness score plus seen-class logits."""

    def __init__(self, net: MlpNetwork, n_classes: int):
        if net.out_dim != 1 + n_classes:
            raise InvalidInputError(
                f"head layer width {net.out_dim} != 1 + {n_classes} classes")
        self.net = net
        self.n_classes = n_classes
        # selects the critic unit when differentiating w.r.t. the input
        self._real_select = np.zeros(net.out_dim)
        self._real_select[0] = 1.0

    @property
    def input_dim(self) -> int:
        return self.net.in_dim

    @property
    def params(self) -> np.ndarray:
        return self.net.params

    @property
    def n_params(self) -> int:
        return self.net.n_params

    def param_vector(self) -> np.ndarray:
        return self.net.param_vector()

    def set_param_vector(self, theta: np.ndarray) -> None:
        self.net.set_param_vector(theta)

    def forward(self, x: np.ndarray):
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        out, cache = self.net.forward_cached(np.atleast_2d(x))
        real, logits = out[:, 0], out[:, 1:]
        if squeeze:
            return (float(real[0]), logits[0]), cache
        return (real, logits), cache

    def backward(self, cache: MlpCache, d_real: np.ndarray, d_logits: np.ndarray):
        """Gradients of sum(d_real * real + d_logits * logits): (flat, d_x)."""
        d_real = np.atleast_1d(np.asarray(d_real, dtype=np.float64))
        d_logits = np.atleast_2d(np.asarray(d_logits, dtype=np.float64))
        d_out = np.concatenate([d_real[:, None], d_logits], axis=1)
        return self.net.backward(cache, d_out)


def build_discriminator(arch: DiscriminatorArch, rng: RngStream) -> Discriminator:
    arch.validate()
    dims = (arch.input_dim, *arch.hidden_dims)
    layers = [glorot_layer(rng, dims[i], dims[i + 1], "leaky_relu", HIDDEN_SLOPE)
              for i in range(len(dims) - 1)]
    layers.append(glorot_layer(rng, dims[-1], 1 + arch.n_classes, "identity"))
    return Discriminator(net=MlpNetwork(layers), n_classes=arch.n_classes)


def gradient_penalty(disc: Discriminator, cache: MlpCache):
    """Mean Lipschitz penalty (||grad_x critic||_2 - 1)^2 over the rows of a
    critic forward cache, with its exact gradient w.r.t. the discriminator
    parameters. The cache may be a row slice (`MlpCache.rows`) of a larger
    stacked forward; a standalone caller passes `disc.net.forward_cached(x)[1]`.

    Returns (mean penalty, flat parameter gradient, per-row penalties).
    If a row's input gradient vanishes exactly, its penalty is 1 and the norm
    term's gradient is taken as zero there (documented subgradient choice).
    """
    g = disc.net.input_grad_rows(cache, disc._real_select)
    norms = np.linalg.norm(g, axis=1)
    penalties = (norms - 1.0) ** 2
    scale = np.divide(2.0 * (norms - 1.0), norms, out=np.zeros_like(norms),
                      where=norms > 0.0) / norms.size
    v = g * scale[:, None]
    grad = disc.net.grad_of_input_grad(cache, disc._real_select, v)
    return float(penalties.mean()), grad, penalties


# --------------------------------------------------------------------------
# Checkpoint format: magic "CZSL", version u16, u32 network count, u32
# generator noise dim, then per network a u32 layer count and per layer u32
# in, u32 out, u8 activation tag (an index into ACTIVATIONS), f64 slope; all
# parameters follow as little-endian f64 in flat order.
# Networks are stored in the fixed order (generator embed, generator trunk,
# discriminator), so the parameters are the generator's buffer followed by
# the discriminator's.
# --------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"CZSL"
CHECKPOINT_VERSION = 1


def _net_header(net: MlpNetwork) -> bytes:
    parts = [struct.pack("<I", len(net.layers))]
    for l in net.layers:
        parts.append(struct.pack("<IIBd", l.weight.shape[1], l.weight.shape[0],
                                 ACTIVATIONS.index(l.activation), l.slope))
    return b"".join(parts)


def save_checkpoint(path, gen: Generator, disc: Discriminator) -> None:
    nets = [gen.embed, gen.trunk, disc.net]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<H", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(nets)))
        f.write(struct.pack("<I", gen.noise_dim))
        for net in nets:
            f.write(_net_header(net))
        for model in (gen, disc):
            f.write(model.params.astype("<f8", copy=False).tobytes())


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise DatasetFormatError(f"checkpoint truncated while reading {what}")
    return data


def load_checkpoint(path) -> tuple[Generator, Discriminator]:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise DatasetFormatError(
                f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        (version,) = struct.unpack("<H", _read_exact(f, 2, "version"))
        if version != CHECKPOINT_VERSION:
            raise DatasetFormatError(
                f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        (n_nets,) = struct.unpack("<I", _read_exact(f, 4, "network count"))
        if n_nets != 3:
            raise DatasetFormatError(f"expected 3 stored networks, found {n_nets}")
        (noise_dim,) = struct.unpack("<I", _read_exact(f, 4, "noise dim"))
        headers = []
        for _ in range(n_nets):
            (n_layers,) = struct.unpack("<I", _read_exact(f, 4, "layer count"))
            layers = []
            for _ in range(n_layers):
                in_dim, out_dim, tag, slope = struct.unpack(
                    "<IIBd", _read_exact(f, 17, "layer header"))
                if tag >= len(ACTIVATIONS):
                    raise DatasetFormatError(f"unknown activation tag {tag}")
                layers.append((in_dim, out_dim, tag, slope))
            headers.append(layers)
        # allocate nothing before the headers agree with the file's size
        n_params = sum(o * (i + 1) for net in headers for i, o, _, _ in net)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left != 8 * n_params:
            raise DatasetFormatError(
                f"checkpoint {'truncated' if left < 8 * n_params else 'has trailing bytes'}:"
                f" headers declare {8 * n_params} parameter bytes, {left} follow them")
        embed, trunk, d_net = (
            MlpNetwork([Layer(weight=np.zeros((o, i)), bias=np.zeros(o),
                              activation=ACTIVATIONS[tag], slope=slope)
                        for i, o, tag, slope in net]) for net in headers)
        gen = Generator(embed=embed, trunk=trunk, noise_dim=noise_dim)
        disc = Discriminator(net=d_net, n_classes=d_net.out_dim - 1)
        for model in (gen, disc):
            raw = _read_exact(f, 8 * model.n_params, "parameters")
            model.params[...] = np.frombuffer(raw, dtype="<f8")
    return gen, disc
