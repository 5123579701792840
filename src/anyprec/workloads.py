"""Transformer model hyperparameters expanded into per-layer GEMMs.

A prefill pass over seq_len tokens: per layer, the QKV projection, the
attention score and context batched GEMMs (aggregated across heads along
the row dimension), the output projection, and the two feed-forward
matrices. Head count defaults to d_model / 64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .archsim import GemmWorkload
from .codec import FormatSpec, parse_format
from .config import Key, load_json_config, presets
from .control import PEConfig, pe_capacity
from .errors import CapacityError, ConfigError, FormatError

log = logging.getLogger(__name__)

LAYER_CLASSES = ("qkv", "attn_score", "attn_context", "out_proj", "ffn_up", "ffn_down")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    seq_len: int
    num_layers: int
    d_model: int
    d_ff: int
    head_dim: int = 64
    precision_plan: dict = field(default_factory=dict)  # layer class -> (fmtA, fmtW)

    def __post_init__(self):
        if "," in self.name or self.name.splitlines() != [self.name]:  # run.csv's model column
            raise ConfigError(f"model name must be non-empty, no comma or line break: {self.name!r}")
        if min(self.seq_len, self.num_layers, self.d_model, self.d_ff, self.head_dim) < 1:
            raise ConfigError(f"{self.name}: dimensions must be positive")
        if self.d_model % self.head_dim:
            raise ConfigError(f"{self.name}: d_model not divisible by head_dim")

    @property
    def heads(self) -> int:
        return self.d_model // self.head_dim


_MODEL_SCHEMA = {
    "name": Key(str),
    **dict.fromkeys(("seq_len", "num_layers", "d_model", "d_ff"), Key(int, lo=1)),
    "head_dim": Key(int, required=False, lo=1),
}


def load_model(source) -> ModelSpec:
    if isinstance(source, ModelSpec):
        return source
    return ModelSpec(**load_json_config("model config", "models", source, _MODEL_SCHEMA))


def builtin_models() -> list[str]:
    return presets("models")


def layer_gemm_dims(model: ModelSpec, layer_class: str) -> tuple[int, int, int]:
    """(M, N, K) of one layer-class GEMM; attention GEMMs aggregate heads
    along M."""
    s, d, f, h, hd = model.seq_len, model.d_model, model.d_ff, model.heads, model.head_dim
    if layer_class == "qkv":
        return s, 3 * d, d
    if layer_class == "attn_score":
        return h * s, s, hd
    if layer_class == "attn_context":
        return h * s, hd, s
    if layer_class == "out_proj":
        return s, d, d
    if layer_class == "ffn_up":
        return s, f, d
    if layer_class == "ffn_down":
        return s, d, f
    raise ConfigError(f"unknown layer class {layer_class!r}")


def layer_label(model: ModelSpec, layer: int, layer_class: str) -> str:
    """The label of one (layer, layer class) GEMM, as `expand` gives it."""
    return f"{model.name}.L{layer:02d}.{layer_class}"


def expand(
    model: ModelSpec,
    fmt_a: FormatSpec | None = None,
    fmt_w: FormatSpec | None = None,
    fmt_o: FormatSpec | None = None,
    include_attention: bool = True,
) -> list[GemmWorkload]:
    """One GemmWorkload per (layer, layer class), deterministic order."""
    default_a = fmt_a or parse_format("e5m10")
    default_w = fmt_w or default_a
    out = []
    classes = LAYER_CLASSES if include_attention else tuple(
        c for c in LAYER_CLASSES if not c.startswith("attn")
    )
    for layer in range(model.num_layers):
        for cls in classes:
            fa, fw = model.precision_plan.get(cls, (default_a, default_w))
            m, n, k = layer_gemm_dims(model, cls)
            out.append(
                GemmWorkload(
                    m=m, n=n, k=k,
                    fmt_a=fa, fmt_w=fw, fmt_o=fmt_o or fa,
                    label=layer_label(model, layer, cls),
                )
            )
    return out


def total_macs(model: ModelSpec, include_attention: bool = True) -> int:
    classes = LAYER_CLASSES if include_attention else tuple(
        c for c in LAYER_CLASSES if not c.startswith("attn")
    )
    per_layer = 0
    for cls in classes:
        m, n, k = layer_gemm_dims(model, cls)
        per_layer += m * n * k
    return per_layer * model.num_layers


def precision_sweep(
    model: ModelSpec,
    pairs,
    include_attention: bool = True,
    pe_cfg: PEConfig = PEConfig(),
) -> list[tuple[str, str, list[GemmWorkload]]]:
    """Cross product of the model's GEMMs with precision pairs, stable
    ordering, every output in the pair's activation format. Pairs may be
    FormatSpec tuples or "actfmt:wgtfmt" strings; invalid pairs, and pairs
    the PE `pe_cfg` cannot run, are skipped with a warning, but rejecting
    every pair given is a ConfigError."""
    out = []
    rejected = []
    for pair in pairs:
        try:
            if isinstance(pair, str):
                a_txt, w_txt = pair.split(":")
                fa, fw = parse_format(a_txt), parse_format(w_txt)
            else:
                fa, fw = pair
            pe_capacity(fa, fw, pe_cfg)
        except (CapacityError, FormatError, ValueError) as exc:
            log.warning("skipping precision pair %r: %s", pair, exc)
            rejected.append(pair)
            continue
        out.append((str(fa), str(fw), expand(model, fa, fw, fa, include_attention)))
    if rejected and not out:
        raise ConfigError(f"no valid precision pair among {rejected!r}")
    return out


# the 13 activation/weight precision pairs used by the shipped sweeps
DEFAULT_SWEEP_PAIRS = (
    "e5m10:e5m10",
    "e5m10:e4m3",
    "e5m10:e2m3",
    "e5m10:e2m1",
    "e4m3:e4m3",
    "e4m3:e2m3",
    "e4m3:e2m2",
    "e4m3:e2m1",
    "e2m3:e2m3",
    "e2m3:e2m2",
    "e2m3:e2m1",
    "e2m2:e2m2",
    "e2m1:e2m1",
)
