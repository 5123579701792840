"""Accelerator-level analytic cycle model.

Roofline-style: compute cycles from the PE-array mapping and per-PE rate,
memory cycles from packed traffic over off-chip and on-chip bandwidths,
overall latency = max of the bound resources plus a fixed reconfiguration
cost. Weight- and output-stationary dataflows differ in their array
mapping and reuse structure. Baselines (fixed-format tensor-core style and
power-of-two fusion style) run the same skeleton at their upcast formats
with padded storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .codec import FormatSpec, Kind, parse_format
from .config import POSITIVE, Key, load_json_config, presets
from .control import PEConfig, pe_capacity
from .errors import ConfigError

WS = "ws"
OS = "os"
DATAFLOWS = (WS, OS)


@dataclass(frozen=True)
class AcceleratorConfig:
    """Machine description: PE array, buffers, interconnect, clocking."""

    name: str
    num_pes: int
    array_x: int
    array_y: int
    reg_width: int = 24
    wgt_glb_bytes: int = 2 * 2**20
    act_out_glb_bytes: int = 1 * 2**20
    local_buf_bytes_per_pe: int = 184
    noc_w_gbps: float = 32.0
    noc_a_gbps: float = 32.0
    offchip_gbps: float = 16.0
    clock_hz: float = 1.0e9
    reconfig_cycles: int = 64

    def __post_init__(self):
        if self.name.splitlines() != [self.name]:  # it starts one-line error messages
            raise ConfigError(f"machine name must be non-empty, with no line break: {self.name!r}")
        if self.num_pes != self.array_x * self.array_y:
            raise ConfigError(
                f"{self.name}: num_pes {self.num_pes} != {self.array_x}x{self.array_y}"
            )
        if min(self.wgt_glb_bytes, self.act_out_glb_bytes, self.local_buf_bytes_per_pe) <= 0:
            raise ConfigError(f"{self.name}: buffers must be positive")


@dataclass(frozen=True)
class GemmWorkload:
    m: int
    n: int
    k: int
    fmt_a: FormatSpec
    fmt_w: FormatSpec
    fmt_o: FormatSpec
    label: str = ""

    def __post_init__(self):
        if min(self.m, self.n, self.k) < 1:
            raise ConfigError(f"{self.label}: GEMM dims must be positive")

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k


@dataclass(frozen=True)
class TilePlan:
    dataflow: str
    tile_m: int
    tile_n: int
    tile_k: int
    n_mt: int
    n_nt: int
    n_kt: int
    wgt_reuse: float   # times each weight bit is used per fetch
    out_reuse: float   # k-steps accumulated per output residency


@dataclass
class SimReport:
    """Observable metrics of one simulated GEMM."""

    machine: str
    workload: str
    dataflow: str
    cycles: int
    seconds: float
    macs: int
    macs_per_cycle: float
    pe_util: float
    dram_bits_read: int
    dram_bits_written: int
    noc_bits: int
    sram_read_bits: int
    sram_write_bits: int
    energy_j: float = 0.0
    breakdowns: dict = field(default_factory=dict)


def pe_throughput(fmt_a: FormatSpec, fmt_w: FormatSpec, cfg: PEConfig | None = None) -> int:
    """Peak MACs per cycle per PE: the operations of one datapath pass."""
    return pe_capacity(fmt_a, fmt_w, cfg or PEConfig())[2]


def _halving_ladder(n: int) -> list[int]:
    out = []
    v = n
    while v >= 1:
        out.append(v)
        if v == 1:
            break
        v = -(-v // 2)
    return out


def plan_tiles(
    w: GemmWorkload,
    acc: AcceleratorConfig,
    dataflow: str,
    store_a: int | None = None,
    store_w: int | None = None,
    store_o: int | None = None,
) -> TilePlan:
    """Choose the largest-reuse GLB tiling for the dataflow: candidate tile
    splits are enumerated on a halving ladder and the one with the least
    modeled DRAM traffic wins. Store widths default to the packed element
    widths."""
    if dataflow not in DATAFLOWS:
        raise ConfigError(f"unknown dataflow {dataflow!r}")
    pa = store_a or w.fmt_a.total_bits
    pw = store_w or w.fmt_w.total_bits
    po = store_o or w.fmt_o.total_bits
    wgt_bits = acc.wgt_glb_bytes * 8
    ao_bits = acc.act_out_glb_bytes * 8
    bits_a = w.m * w.k * pa
    bits_w = w.k * w.n * pw
    bits_o = w.m * w.n * po

    best = None
    if dataflow == WS:
        # weights resident (tile_k x tile_n); act strip + psum strip share
        # the act/out buffer; shallower weight tiles widen tile_n (fewer
        # activation rereads) at the cost of partial-sum spills
        for tile_k in _halving_ladder(w.k):
            tile_n = min(w.n, wgt_bits // (tile_k * pw))
            if tile_n < 1:
                continue
            tile_m = min(w.m, ao_bits // (tile_k * pa + tile_n * po))
            if tile_m < 1:
                continue
            n_nt = _ceil_div(w.n, tile_n)
            n_kt = _ceil_div(w.k, tile_k)
            traffic = bits_w + n_nt * bits_a + (2 * n_kt - 1) * bits_o
            cand = (traffic, -tile_k, tile_n, tile_m)
            if best is None or cand < best[0]:
                best = (cand, (tile_m, tile_n, tile_k))
    else:
        # outputs resident across the whole K loop; acts stream through a
        # one-deep strip of the same buffer
        for tile_m in _halving_ladder(w.m):
            tile_n = min(w.n, (ao_bits - tile_m * pa) // max(1, tile_m * po))
            if tile_n < 1 or tile_m * pa + tile_m * tile_n * po > ao_bits:
                continue
            if wgt_bits < pw:  # must hold at least one weight element
                continue
            n_mt = _ceil_div(w.m, tile_m)
            n_nt = _ceil_div(w.n, tile_n)
            traffic = n_mt * bits_w + n_nt * bits_a + bits_o
            cand = (traffic, -tile_m, tile_n)
            if best is None or cand < best[0]:
                best = (cand, (tile_m, tile_n, w.k))
    if best is None:
        raise ConfigError(f"{acc.name}: buffers cannot hold a unit tile of {w.label}")

    tile_m, tile_n, tile_k = best[1]
    n_mt = _ceil_div(w.m, tile_m)
    n_nt = _ceil_div(w.n, tile_n)
    n_kt = _ceil_div(w.k, tile_k)
    if dataflow == WS:
        wgt_reuse = w.m / tile_m
        out_reuse = tile_k
    else:
        wgt_reuse = 1.0
        out_reuse = w.k
    return TilePlan(dataflow, tile_m, tile_n, tile_k, n_mt, n_nt, n_kt, wgt_reuse, out_reuse)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def simulate(
    w: GemmWorkload,
    acc: AcceleratorConfig,
    dataflow: str = WS,
    pe_cfg: PEConfig | None = None,
    padded: bool = False,
    pe: tuple[int, int, int] | None = None,
    store_widths: tuple[int, int, int] | None = None,
) -> SimReport:
    """Analytic cycle/traffic model of one GEMM on one machine.

    The PE's elements per register load and operations per pass come from
    `control.pe_capacity`. `padded` stores every element in byte-aligned
    containers end to end (no packing unit), so a load holds no more
    elements than fit the register as containers. `pe` (elements per load
    of A and of W, operations per pass) and `store_widths` let baselines
    override the PE and the storage widths.
    """
    pe_cfg = pe_cfg or PEConfig(reg_width=acc.reg_width)
    pa, pw, po = store_widths or (f.total_bits for f in (w.fmt_a, w.fmt_w, w.fmt_o))
    if padded:
        pa, pw, po = (8 * _ceil_div(x, 8) for x in (pa, pw, po))

    if pe is None:
        pe_a, pe_w, tput, _ = pe_capacity(w.fmt_a, w.fmt_w, pe_cfg)
        if padded:
            pe_a, pe_w = min(pe_a, pe_cfg.reg_width // pa), min(pe_w, pe_cfg.reg_width // pw)
    else:
        pe_a, pe_w, tput = pe
    for width, n in ((pa, pe_a), (pw, pe_w)):
        if n < 1:
            raise ConfigError(f"{width}-bit element exceeds the {pe_cfg.reg_width}-bit register")
    tput = min(tput, pe_a * pe_w)
    cyc_per_step = _ceil_div(pe_a * pe_w, tput)  # the serialization factor of a packed load

    plan = plan_tiles(w, acc, dataflow, pa, pw, po)

    # array mapping
    if dataflow == OS:
        um = acc.array_x * pe_a
        un = acc.array_y * pe_w
        waves = _ceil_div(w.m, um) * _ceil_div(w.n, un)
        compute_cycles = waves * w.k * cyc_per_step
    else:
        uk = acc.array_x
        un = acc.array_y * pe_w
        waves = _ceil_div(w.k, uk) * _ceil_div(w.n, un)
        compute_cycles = waves * _ceil_div(w.m, pe_a) * cyc_per_step

    # DRAM traffic (bits)
    bits_a = w.m * w.k * pa
    bits_w = w.k * w.n * pw
    bits_o = w.m * w.n * po
    if dataflow == WS:
        dram_rd = bits_w + plan.n_nt * bits_a + (plan.n_kt - 1) * bits_o
        dram_wr = plan.n_kt * bits_o
    else:
        dram_rd = plan.n_mt * bits_w + plan.n_nt * bits_a
        dram_wr = bits_o

    # NoC traffic (bits over the weight and act/out networks)
    if dataflow == WS:
        k_pe = max(1, (acc.local_buf_bytes_per_pe * 8 // 2) // max(1, pe_w * pw))
        noc_w = bits_w
        noc_a_in = _ceil_div(w.n, un) * bits_a
        noc_out = _ceil_div(w.k, acc.array_x * k_pe) * bits_o
    else:
        noc_w = _ceil_div(w.m, acc.array_x * pe_a) * bits_w
        noc_a_in = _ceil_div(w.n, acc.array_y * pe_w) * bits_a
        noc_out = bits_o
    noc_a = noc_a_in + noc_out

    # bandwidths in bits per cycle
    def _bpc(gbps: float) -> float:
        return gbps * 8e9 / acc.clock_hz

    dram_cycles = math.ceil((dram_rd + dram_wr) / _bpc(acc.offchip_gbps))
    noc_w_cycles = math.ceil(noc_w / _bpc(acc.noc_w_gbps))
    noc_a_cycles = math.ceil(noc_a / _bpc(acc.noc_a_gbps))

    cycles = max(compute_cycles, dram_cycles, noc_w_cycles, noc_a_cycles) + acc.reconfig_cycles
    ideal = w.macs / (acc.num_pes * tput)
    util = min(1.0, ideal / cycles)

    # SRAM traffic: GLB fills/reads plus PE register loads from local buffers
    pe_steps = _ceil_div(w.macs, pe_a * pe_w)
    local_reads = pe_steps * (pe_a * pa + pe_w * pw)
    glb_reads = noc_w + noc_a_in
    glb_writes = dram_rd + noc_out

    add_width = max(w.fmt_a.exp_bits, w.fmt_w.exp_bits)
    report = SimReport(
        machine=acc.name,
        workload=w.label,
        dataflow=dataflow,
        cycles=int(cycles),
        seconds=cycles / acc.clock_hz,
        macs=w.macs,
        macs_per_cycle=w.macs / cycles,
        pe_util=util,
        dram_bits_read=int(dram_rd),
        dram_bits_written=int(dram_wr),
        noc_bits=int(noc_w + noc_a),
        sram_read_bits=int(glb_reads + local_reads),
        sram_write_bits=int(glb_writes),
        breakdowns={
            "cycles": {
                "compute": int(compute_cycles),
                "dram": int(dram_cycles),
                "noc_w": int(noc_w_cycles),
                "noc_a": int(noc_a_cycles),
                "reconfig": acc.reconfig_cycles,
            },
            "counts": {
                "prim_bit_ops": w.macs * max(1, w.fmt_a.man_bits * w.fmt_w.man_bits),
                "tree_node_bits": 2 * w.macs * max(1, w.fmt_a.man_bits * w.fmt_w.man_bits),
                "exp_add_bits": w.macs * (add_width + 1 if add_width else 0),
            },
            "plan": {
                "tile_m": plan.tile_m,
                "tile_n": plan.tile_n,
                "tile_k": plan.tile_k,
                "throughput": tput,
            },
        },
    )
    return report


def best_dataflow(w: GemmWorkload, acc: AcceleratorConfig, pe_cfg: PEConfig | None = None) -> SimReport:
    """Pick the lower-cycle dataflow for this point."""
    ws = simulate(w, acc, WS, pe_cfg)
    os_ = simulate(w, acc, OS, pe_cfg)
    return ws if ws.cycles <= os_.cycles else os_


# --------------------------------------------------------------------------
# Baselines
# --------------------------------------------------------------------------

TENSOR_CORE = "tensorcore"
BIT_FUSION = "bitfusion"
_TC_FLOATS = (parse_format("e4m3"), parse_format("e5m10"))


def _pow2ceil(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def upcast_tensor_core(fmt: FormatSpec) -> FormatSpec:
    """Nearest supported fixed format: e4m3, e5m10, or int8."""
    if fmt.kind is Kind.INT:
        if fmt.total_bits <= 8:
            return parse_format("int8")
        raise ConfigError(f"{fmt} unsupported after upcast (int wider than 8)")
    for cand in _TC_FLOATS:
        if fmt.exp_bits <= cand.exp_bits and fmt.man_bits <= cand.man_bits:
            return cand
    raise ConfigError(f"{fmt} unsupported after upcast (beyond e5m10)")


def upcast_bit_fusion(fmt: FormatSpec) -> tuple[int, int]:
    """(storage width, fused multiplier operand width), powers of two."""
    store = _pow2ceil(fmt.total_bits)
    if store > 16:
        raise ConfigError(f"{fmt} unsupported: fused units stop at 16 bits")
    if fmt.kind is Kind.INT:
        mult = max(2, _pow2ceil(fmt.total_bits))
    else:
        mult = max(2, _pow2ceil(fmt.man_bits + 1))
    return store, mult


def simulate_baseline(
    w: GemmWorkload,
    acc: AcceleratorConfig,
    kind: str,
    pe_cfg: PEConfig | None = None,
) -> SimReport:
    """Iso-PE baselines sharing the roofline skeleton.

    The tensor-core style machine upcasts to its fixed formats and stores
    container-padded data. The fusion style machine supports power-of-two
    operand widths with fused-unit throughput scaling (256 bit-products
    per cycle, the capacity a 16x16 significand multiply needs).
    """
    pe_cfg = pe_cfg or PEConfig(reg_width=acc.reg_width)
    if kind == TENSOR_CORE:
        up_a, up_w, up_o = (upcast_tensor_core(f) for f in (w.fmt_a, w.fmt_w, w.fmt_o))
        widths = (up_a.total_bits, up_w.total_bits, up_o.total_bits)
        per_pass = pe_cfg.prim_reg_bits // max(1, up_a.man_bits * up_w.man_bits)
    elif kind == BIT_FUSION:
        (sa, ma), (sw, mw), (so, _) = (upcast_bit_fusion(f) for f in (w.fmt_a, w.fmt_w, w.fmt_o))
        widths = (sa, sw, so)
        per_pass = 256 // (ma * mw)
    else:
        raise ConfigError(f"unknown baseline {kind!r}")
    # fixed-width elements packed whole into the register, no field-register limit
    pe = (pe_cfg.reg_width // widths[0], pe_cfg.reg_width // widths[1], per_pass)
    report = simulate(w, acc, WS, pe_cfg, pe=pe, store_widths=widths)
    report.machine = f"{acc.name}:{kind}"
    return report


def packing_ablation(
    w: GemmWorkload,
    acc: AcceleratorConfig,
    dataflow: str = WS,
    pe_cfg: PEConfig | None = None,
) -> tuple[SimReport, SimReport]:
    """Identical machines, one with packed layout, one padded to byte
    containers end to end. Returns (packed, padded)."""
    packed = simulate(w, acc, dataflow, pe_cfg)
    padded = simulate(w, acc, dataflow, pe_cfg, padded=True)
    padded.machine = f"{acc.name}:padded"
    return packed, padded


# --------------------------------------------------------------------------
# Machine presets
# --------------------------------------------------------------------------


_MACHINE_SCHEMA = {
    "name": Key(str),
    "num_pes": Key(int, lo=1),
    "array_x": Key(int, lo=1),
    "array_y": Key(int, lo=1),
    # the packed register must hold the mantissa and exponent field registers
    "reg_width": Key(int, required=False, lo=max(PEConfig.man_reg_bits, PEConfig.exp_reg_bits)),
    # buffers hold at least one byte
    "wgt_glb_mb": Key(float, lo=2**-20, field="wgt_glb_bytes", convert=lambda mb: int(mb * 2**20)),
    "act_out_glb_mb": Key(
        float, lo=2**-20, field="act_out_glb_bytes", convert=lambda mb: int(mb * 2**20)
    ),
    "local_buf_kb_per_pe": Key(
        float, required=False, lo=2**-10, field="local_buf_bytes_per_pe",
        convert=lambda kb: int(kb * 1024),
    ),
    **dict.fromkeys(("noc_w_gbps", "noc_a_gbps", "offchip_gbps"), Key(float, lo=POSITIVE)),
    "clock_ghz": Key(
        float, required=False, lo=POSITIVE, field="clock_hz", convert=lambda ghz: ghz * 1e9
    ),
    "reconfig_cycles": Key(int, required=False),
}


def load_machine(source) -> AcceleratorConfig:
    """Load a machine description from a JSON file (path or name of a
    shipped preset)."""
    if isinstance(source, AcceleratorConfig):
        return source
    return AcceleratorConfig(**load_json_config("machine config", "machines", source, _MACHINE_SCHEMA))


def builtin_machines() -> list[str]:
    return presets("machines")
