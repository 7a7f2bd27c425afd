"""Feed-forward networks with exact reverse-mode gradients, including the
second-order sweep needed by the Lipschitz gradient penalty, plus the binary
checkpoint format.

Shape conventions: batches are row-major, weights are (out, in), and the flat
parameter vector of a network concatenates each layer's weights (row-major)
followed by its bias, in layer order. Each network stores its parameters in
one contiguous float64 buffer in that order (`params`); layer weights and
biases are views into it.

Model axis: `stack` joins B models of one architecture into one network
whose `params` has shape (B, n). A stack takes and returns rows of shape
(B, rows, dim), one block per model, and makes every product one
`np.matmul` over the B blocks. The joined models become views of their rows
(the stack's `members`) and keep the single-model shapes: (n,) parameters
and 2-D rows. A single model runs the same code as a stack of one, and its
methods also take rows with a leading model axis of 1.
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
    """The activation of the pre-activations `z`, computed in place."""
    if name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "leaky_relu":
        # equal to where(z > 0, z, slope * z) for slopes in [0, 1], signed
        # zeros and NaN included, without the mask and its copies
        np.maximum(z, slope * z, out=z)
    return z


def _act_d(name: str, h: np.ndarray, slope: float):
    """Derivative at the pre-activation, read from the layer output `h`:
    relu and leaky relu (slope in [0, 1]) are positive exactly where their
    input is. Identity's is the scalar 1. Every activation is piecewise
    linear, so no sweep needs a second derivative."""
    if name == "identity":
        return 1.0
    if name == "relu":
        return (h > 0.0).astype(np.float64)
    # 1 where h > 0, else the slope: (1 - slope) + slope rounds to exactly 1
    # for every slope in [0, 1], and the mask costs less than np.where
    d = (h > 0.0) * (1.0 - slope)
    d += slope
    return d


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
        if self.activation == "leaky_relu" and not 0.0 <= self.slope <= 1.0:
            raise InvalidInputError(f"leaky-relu slope must be in [0, 1], got {self.slope}")


@dataclass
class MlpCache:
    """Each layer's input `hs[i]` (the output last), as (B, rows, dim)
    stacks; the sweeps share the activation derivatives `ds`, computed on
    first use from the layer outputs. `single` records that the forward rows
    came without a model axis, so the sweeps return rows without one."""

    hs: list[np.ndarray]
    version: int
    single: bool = False
    ds: list | None = None

    @property
    def x(self) -> np.ndarray:
        """The input rows of all models, as one (B * rows, dim) matrix."""
        return self.hs[0].reshape(-1, self.hs[0].shape[-1])

    def rows(self, sel: slice) -> "MlpCache":
        """The cache of the forward pass over the rows `sel` of each model alone."""
        return MlpCache(hs=[h[:, sel] for h in self.hs], version=self.version,
                        single=self.single)


def _architecture(net: "MlpNetwork") -> list:
    return [(l.weight.shape, l.activation, l.slope) for l in net.layers]


class MlpNetwork:
    """A plain fully-connected network over float64 rows, or a stack of them."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise InvalidInputError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weight.shape[0] != b.weight.shape[1]:
                raise InvalidInputError(
                    f"layer dims do not chain: {a.weight.shape} -> {b.weight.shape}")
        self.layers = layers
        self.members = None
        self._clock = [0]
        self._bind(np.empty(sum(l.weight.size + l.bias.size for l in layers)))

    @classmethod
    def stack(cls, nets) -> "MlpNetwork":
        """One network of the models `nets`, which share an architecture.
        Each of `nets` becomes a view of its row of the stack's (B, n)
        `params`; a stack's `layers` are its first member's. The stack's
        clock starts past every member's, so no cache a member made before
        stacking passes as current."""
        nets = list(nets)
        if not nets:
            raise InvalidInputError("a stack needs at least one network")
        if any(_architecture(n) != _architecture(nets[0]) for n in nets[1:]):
            raise InvalidInputError("stacked networks must share one architecture")
        net = cls.__new__(cls)
        net.layers, net.members = nets[0].layers, nets
        net._clock = [1 + max(n._clock[0] for n in nets)]
        net._bind(np.empty((len(nets), nets[0].n_params)))
        return net

    def _views(self, stack: np.ndarray):
        """(B, out, in) weight and (B, out) bias views of each layer's slice of
        a (B, n) parameter-sized array."""
        weights, biases, i = [], [], 0
        for l in self.layers:
            n_out, n_in = l.weight.shape
            j = i + n_out * n_in
            weights.append(stack[:, i:j].reshape(-1, n_out, n_in))
            biases.append(stack[:, j:j + n_out])
            i = j + n_out
        return weights, biases

    def _bind(self, params: np.ndarray) -> None:
        """Move the parameters into `params`, of shape (n,) for one model or
        (B, n) for a stack, and make the layer views of it."""
        stack = params.reshape(-1, params.shape[-1])
        weights, biases = self._views(stack)
        if self.members is None:
            for l, w, b in zip(self.layers, weights, biases):
                w[0] = l.weight
                b[0] = l.bias
                l.weight, l.bias = w[0], b[0]
        else:
            for member, row in zip(self.members, params):
                member._bind(row)
                member._clock = self._clock
        self.params, self._stack = params, stack
        self._w, self._b = weights, biases
        self._wt = [w.transpose(0, 2, 1) for w in weights]

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    @property
    def n_params(self) -> int:
        """Parameters per model."""
        return self.params.shape[-1]

    def param_vector(self) -> np.ndarray:
        return self.params.copy()

    def set_param_vector(self, theta: np.ndarray) -> None:
        _copy_params(self.params, theta, "network")
        self.params_changed()

    def params_changed(self) -> None:
        """Record an in-place write to `params`: older forward caches go stale,
        those of the stack and of its members alike."""
        self._clock[0] += 1

    def _lift(self, a: np.ndarray, dim: int, what: str) -> np.ndarray:
        """Rows as a (B, rows, dim) stack. A stack takes (B, rows, dim); a
        single model also takes (rows, dim) and one row (dim,)."""
        n_models = self._stack.shape[0]
        if (a.ndim == 3 and a.shape[0] == n_models
                or self.members is None and a.ndim in (1, 2)) and a.shape[-1] == dim:
            return a.reshape(n_models, -1, dim)
        raise InvalidInputError(
            f"{what} has shape {a.shape}; the network expects rows of dim {dim}"
            + (f" for each of its {n_models} models" if self.members is not None else ""))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
        x = np.asarray(x, dtype=np.float64)
        h = self._lift(x, self.in_dim, "input")
        hs = [h]
        for l, wt, b in zip(self.layers, self._wt, self._b):
            h = np.matmul(h, wt)
            h += b[:, None]
            hs.append(_act(l.activation, h, l.slope))
        cache = MlpCache(hs=hs, version=self._clock[0], single=x.ndim < 3)
        return h.reshape(x.shape[:-1] + h.shape[-1:]), cache

    def _derivatives(self, cache: MlpCache) -> list:
        """The activation derivatives of a current cache of this network."""
        if cache.version != self._clock[0]:
            raise InvalidStateError(
                "forward cache is stale: parameters changed since the forward pass")
        if len(cache.hs) != len(self.layers) + 1:
            raise InvalidStateError("forward cache does not match this network")
        if cache.ds is None:
            cache.ds = [_act_d(l.activation, h, l.slope)
                        for l, h in zip(self.layers, cache.hs[1:])]
        return cache.ds

    def backward(self, cache: MlpCache, d_out: np.ndarray,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Exact gradients of sum(d_out * output) w.r.t. parameters and input.

        The parameter gradient is written into `out` when given; the input
        gradient has the layout of `d_out`.
        """
        ds = self._derivatives(cache)
        d_out = np.asarray(d_out, dtype=np.float64)
        if d_out.shape[-1:] != (self.out_dim,) or d_out.size != cache.hs[-1].size:
            raise InvalidStateError(
                f"output gradient shape {d_out.shape} does not match cached output "
                f"{cache.hs[-1].shape}")
        d = d_out.reshape(cache.hs[-1].shape)
        flat = np.empty(self.params.shape) if out is None else out
        grad_w, grad_b = self._views(flat.reshape(self._stack.shape))
        for i in range(len(self.layers) - 1, -1, -1):
            dz = d * ds[i]
            np.matmul(dz.transpose(0, 2, 1), cache.hs[i], out=grad_w[i])
            dz.sum(axis=1, out=grad_b[i])
            d = np.matmul(dz, self._w[i])
        return flat, d.reshape(d_out.shape[:-1] + d.shape[-1:])

    def input_grad_rows(self, cache: MlpCache, select: np.ndarray) -> np.ndarray:
        """Per-row gradient of <select, output> w.r.t. the input rows."""
        ds = self._derivatives(cache)
        u = np.broadcast_to(select, cache.hs[-1].shape)
        for w, d in zip(reversed(self._w), reversed(ds)):
            u = np.matmul(u * d, w)
        return u[0] if cache.single else u

    def grad_of_input_grad(self, cache: MlpCache, select: np.ndarray,
                           v: np.ndarray) -> np.ndarray:
        """Parameter gradient of sum_rows <v_row, d(<select, output>)/d input_row>.

        Forward-over-reverse on a piecewise-linear network (its measure-zero
        kinks ignored): a tangent pass pushes v through the linearized network;
        each layer's weight gradient is the reverse `select` adjoint at its
        pre-activation times its input tangent, and its bias gradient is zero.
        """
        ds = self._derivatives(cache)
        h_dot = [self._lift(np.asarray(v, dtype=np.float64), self.in_dim, "tangent")]
        for wt, d in zip(self._wt[:-1], ds):
            h_dot.append(d * np.matmul(h_dot[-1], wt))
        flat = np.zeros(self.params.shape)
        grad_w, _ = self._views(flat.reshape(self._stack.shape))
        bar = np.broadcast_to(select, cache.hs[-1].shape)
        for i in range(len(self.layers) - 1, -1, -1):
            bar = bar * ds[i]
            np.matmul(bar.transpose(0, 2, 1), h_dot[i], out=grad_w[i])
            if i:
                bar = np.matmul(bar, self._w[i])
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
    """Conditional feature generator x = G(t, z), or a stack of them."""

    def __init__(self, embed: MlpNetwork, trunk: MlpNetwork, noise_dim: int):
        if embed.out_dim + noise_dim != trunk.in_dim:
            raise InvalidInputError(
                f"embed out {embed.out_dim} + noise {noise_dim} != trunk in {trunk.in_dim}")
        if embed.params.shape[:-1] != trunk.params.shape[:-1]:
            raise InvalidInputError("embed and trunk must hold the same models")
        self.embed = embed
        self.trunk = trunk
        self.noise_dim = noise_dim
        self.members = None
        # one buffer: embed parameters, then trunk parameters (per model)
        ne = embed.n_params
        self.params = np.empty(embed.params.shape[:-1] + (ne + trunk.n_params,))
        embed._bind(self.params[..., :ne])
        trunk._bind(self.params[..., ne:])

    @classmethod
    def stack(cls, gens) -> "Generator":
        """One generator of the models `gens` (see `MlpNetwork.stack`)."""
        gens = list(gens)
        if any(g.noise_dim != gens[0].noise_dim for g in gens):
            raise InvalidInputError("stacked generators must share one noise dim")
        gen = cls(embed=MlpNetwork.stack([g.embed for g in gens]),
                  trunk=MlpNetwork.stack([g.trunk for g in gens]),
                  noise_dim=gens[0].noise_dim)
        for g, row in zip(gens, gen.params):
            g.params = row
        gen.members = gens
        return gen

    @property
    def text_dim(self) -> int:
        return self.embed.in_dim

    @property
    def output_dim(self) -> int:
        return self.trunk.out_dim

    @property
    def n_params(self) -> int:
        """Parameters per model."""
        return self.params.shape[-1]

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
        if z.shape != t.shape[:-1] + (self.noise_dim,):
            raise InvalidInputError(
                f"noise shape {z.shape} does not match batch {t.shape[:-1]} x {self.noise_dim}")
        e, e_cache = self.embed.forward_cached(t)
        x, t_cache = self.trunk.forward_cached(np.concatenate([e, z], axis=-1))
        return x, GeneratorCache(embed=e_cache, trunk=t_cache)

    def backward(self, cache: GeneratorCache, d_out: np.ndarray):
        """Gradients of sum(d_out * output): (flat params, d_t, d_z)."""
        flat = np.empty(self.params.shape)
        ne = self.embed.n_params
        _, d_h = self.trunk.backward(cache.trunk, d_out, out=flat[..., ne:])
        e_dim = self.embed.out_dim
        _, d_t = self.embed.backward(cache.embed, d_h[..., :e_dim], out=flat[..., :ne])
        return flat, d_t, d_h[..., e_dim:]


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
    """Two-headed critic: raw realness score plus seen-class logits, or a
    stack of them."""

    def __init__(self, net: MlpNetwork, n_classes: int):
        if net.out_dim != 1 + n_classes:
            raise InvalidInputError(
                f"head layer width {net.out_dim} != 1 + {n_classes} classes")
        self.net = net
        self.n_classes = n_classes
        self.members = None
        # selects the critic unit when differentiating w.r.t. the input
        self._real_select = np.zeros(net.out_dim)
        self._real_select[0] = 1.0

    @classmethod
    def stack(cls, discs) -> "Discriminator":
        """One critic of the models `discs` (see `MlpNetwork.stack`)."""
        discs = list(discs)
        disc = cls(net=MlpNetwork.stack([d.net for d in discs]),
                   n_classes=discs[0].n_classes)
        disc.members = discs
        return disc

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
        out, cache = self.net.forward_cached(x)
        real, logits = out[..., 0], out[..., 1:]
        if x.ndim == 1:
            return (float(real), logits), cache
        return (real, logits), cache

    def backward(self, cache: MlpCache, d_real: np.ndarray, d_logits: np.ndarray):
        """Gradients of sum(d_real * real + d_logits * logits): (flat, d_x)."""
        d_real = np.asarray(d_real, dtype=np.float64)
        d_out = np.concatenate([d_real[..., None], d_logits], axis=-1)
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

    Returns (mean penalty, flat parameter gradient, per-row penalties); for
    a cache of per-model rows, the mean is one value per model.
    If a row's input gradient vanishes exactly, its penalty is 1 and the norm
    term's gradient is taken as zero there (documented subgradient choice).
    """
    g = disc.net.input_grad_rows(cache, disc._real_select)
    norms = np.linalg.norm(g, axis=-1)
    penalties = (norms - 1.0) ** 2
    scale = np.divide(2.0 * (norms - 1.0), norms, out=np.zeros_like(norms),
                      where=norms > 0.0) / norms.shape[-1]
    v = g * scale[..., None]
    grad = disc.net.grad_of_input_grad(cache, disc._real_select, v)
    mean = penalties.mean(axis=-1)
    return (float(mean) if cache.single else mean), grad, penalties


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
    if gen.members is not None or disc.members is not None:
        raise InvalidInputError("a checkpoint holds one model: save each member of a stack")
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
