"""Static per-layer control generation.

Given a pair of scalar formats and the PE design parameters, the compiler
produces every control structure the datapath needs: separator bit routes,
primitive-generator routes, reduction-tree switch modes (with an executable
merge plan), segmented-adder carry breaks, and alignment-tree lane layout.
Compilation is a pure function of its inputs, so one bundle can be shared
by every simulated PE of a layer.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .codec import FormatSpec, Kind
from .errors import CapacityError, ControlError


@dataclass(frozen=True)
class PEConfig:
    """Design-time PE parameters (register partition and unit widths)."""

    reg_width: int = 24
    man_reg_bits: int = 12
    exp_reg_bits: int = 12
    sign_reg_bits: int = 12
    prim_reg_bits: int = 144
    exp_adder_bits: int = 144
    acc_reg_bits: int = 144
    shift_tree_bits: int = 144

    def __post_init__(self):
        if self.man_reg_bits > self.reg_width or self.exp_reg_bits > self.reg_width:
            raise ControlError("field registers wider than the packed register")
        if self.prim_reg_bits < self.man_reg_bits:
            raise ControlError("primitive register narrower than mantissa register")


class ModeKind(enum.Enum):
    IDLE = "Idle"
    D = "D"
    C2 = "C2"
    C3 = "C3"
    A2 = "A2"
    A3 = "A3"
    CONCAT_ADD = "ConcatAdd"


class Side(enum.Enum):
    NONE = "None"
    LEFT = "Left"
    RIGHT = "Right"


@dataclass(frozen=True)
class SwitchMode:
    kind: ModeKind
    side: Side = Side.NONE

    def __str__(self) -> str:
        return self.kind.value if self.side is Side.NONE else f"{self.kind.value}/{self.side.value}"


_IDLE = SwitchMode(ModeKind.IDLE)
_THREE_INPUT = {ModeKind.C3, ModeKind.A3, ModeKind.CONCAT_ADD}


@functools.lru_cache(maxsize=1024)
def pe_capacity(fmt_a: FormatSpec, fmt_w: FormatSpec, cfg: PEConfig) -> tuple[int, int, int, int]:
    """(act elements per load, wgt elements per load, operations per pass,
    passes per load), for the compiler and the cycle model alike. Whole
    elements fit the packed register and the sign, exponent and mantissa
    registers; operations past the primitive register defer to the next
    pass. CapacityError for a pair the datapath cannot run."""
    if (fmt_a.kind is Kind.INT) != (fmt_w.kind is Kind.INT):
        raise CapacityError(f"{fmt_a}x{fmt_w}: the datapath runs no mixed int/float pair")
    elems = []
    for fmt in (fmt_a, fmt_w):
        n = cfg.reg_width // fmt.total_bits
        if fmt.man_bits:
            n = min(n, cfg.man_reg_bits // fmt.man_bits)
        if fmt.exp_bits:
            n = min(n, cfg.exp_reg_bits // fmt.exp_bits)
        if fmt.signed:
            n = min(n, cfg.sign_reg_bits)
        if n < 1:
            raise CapacityError(f"one {fmt} element does not fit the register partition")
        elems.append(n)
    n_acts, n_wgts = elems
    total_ops = n_acts * n_wgts
    num_prims = fmt_a.man_bits * fmt_w.man_bits
    if num_prims == 0:
        return n_acts, n_wgts, total_ops, 1
    ops_per_pass = min(total_ops, cfg.prim_reg_bits // num_prims)
    if ops_per_pass == 0:
        raise CapacityError(f"{fmt_a}x{fmt_w}: one operation exceeds the primitive register")
    return n_acts, n_wgts, ops_per_pass, -(-total_ops // ops_per_pass)


def compile_separator(fmt_a: FormatSpec, fmt_w: FormatSpec, cfg: PEConfig) -> dict:
    """Bit routes from the packed registers into sign/exponent/mantissa regs.

    Scanning register bit i: the element is i // P and the bit within it
    i % P; bit 0 of an element is its sign, the next exp_bits go to the
    exponent register, the rest to the mantissa register, each with running
    destination indices. Trailing bits past the element capacity are left
    unrouted.
    """
    routes = {}
    for name, fmt, n in zip(("act", "wgt"), (fmt_a, fmt_w), pe_capacity(fmt_a, fmt_w, cfg)):
        p = fmt.total_bits
        route: list[tuple[str, int] | None] = [None] * cfg.reg_width
        sign_idx = exp_idx = man_idx = 0
        for i in range(cfg.reg_width):
            elem = i // p
            bit = i % p
            if elem >= n:
                continue
            if fmt.signed and bit == 0:
                route[i] = ("sign", sign_idx)
                sign_idx += 1
            elif bit < (1 if fmt.signed else 0) + fmt.exp_bits:
                route[i] = ("exp", exp_idx)
                exp_idx += 1
            else:
                route[i] = ("man", man_idx)
                man_idx += 1
        routes[name] = route
    return routes


@dataclass(frozen=True)
class PrimLayout:
    """Primitive-register layout for one pass."""

    num_prims: int                 # mantissa-bit products per operation
    n_acts: int
    n_wgts: int
    ops_per_pass: int
    serialization_factor: int
    routes: tuple                  # per prim bit: (act man reg idx, wgt man reg idx) | None
    oids: tuple                    # per prim bit: operation id | None
    sids: tuple                    # per prim bit: weight-bit segment id | None


def compile_primgen(fmt_a: FormatSpec, fmt_w: FormatSpec, cfg: PEConfig) -> PrimLayout:
    """Lay out bit-product primitives: weight-major operation order, and
    within one operation segment-major ascending activation bit index.

    Operations that do not fit the primitive register defer to the next
    pass; the serialization factor records how many passes cover one
    register load pair.
    """
    bm_a, bm_w = fmt_a.man_bits, fmt_w.man_bits
    n_acts, n_wgts, ops_per_pass, serialization = pe_capacity(fmt_a, fmt_w, cfg)
    num_prims = bm_a * bm_w
    if num_prims == 0:
        return PrimLayout(0, n_acts, n_wgts, ops_per_pass, serialization, (), (), ())

    routes: list[tuple[int, int] | None] = [None] * cfg.prim_reg_bits
    oids: list[int | None] = [None] * cfg.prim_reg_bits
    sids: list[int | None] = [None] * cfg.prim_reg_bits
    for o in range(ops_per_pass):
        a = o % n_acts
        w = o // n_acts
        for j in range(bm_w):
            for i in range(bm_a):
                slot = o * num_prims + j * bm_a + i
                # mantissa registers hold each element MSB-first; bit index
                # i counts from the LSB, so flip within the element
                routes[slot] = (a * bm_a + (bm_a - 1 - i), w * bm_w + (bm_w - 1 - j))
                oids[slot] = o
                sids[slot] = j
    return PrimLayout(
        num_prims, n_acts, n_wgts, ops_per_pass, serialization,
        tuple(routes), tuple(oids), tuple(sids),
    )


def compile_exp_adder(fmt_a: FormatSpec, fmt_w: FormatSpec, cfg: PEConfig) -> tuple[list[int], int]:
    """Carry-break mask for the segmented exponent adder.

    Each segment is add_width + 1 bits: the extra guard bit absorbs the
    carry of a full-width exponent sum so neighbors never pollute each
    other. breaks[i] == 1 stops carry propagation after bit i.
    """
    add_width = max(fmt_a.exp_bits, fmt_w.exp_bits)
    if add_width < 1:
        return [0] * cfg.exp_adder_bits, 0
    seg = add_width + 1
    breaks = [1 if (i + 1) % seg == 0 else 0 for i in range(cfg.exp_adder_bits)]
    return breaks, add_width


# --------------------------------------------------------------------------
# Reduction tree
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TreePlan:
    """Executable shift-add schedule distilled from the switch modes.

    Slot values start as the primitive bits (slots [0, leaf_count)); each
    step computes slots[dst] = slots[a] + (slots[b] << shift). Output o of
    the pass is slots[outputs[o]].
    """

    leaf_count: int
    n_slots: int
    steps: tuple            # (dst, src_a, src_b, shift)
    outputs: tuple          # per operation: slot index, or None for 0-prim ops

    def evaluate(self, leaves):
        """Run the schedule on leaf values (ints or numpy arrays). Returns
        one value per operation; operations with no primitives yield 0."""
        if len(leaves) != self.leaf_count:
            raise ControlError(
                f"plan expects {self.leaf_count} leaves, got {len(leaves)}"
            )
        slots = list(leaves) + [None] * (self.n_slots - self.leaf_count)
        for dst, a, b, shift in self.steps:
            slots[dst] = slots[a] + (slots[b] << shift)
        return [0 if s is None else slots[s] for s in self.outputs]


@dataclass
class _Stream:
    oid: int
    sid: int | None         # None once segments have been mixed by an add
    lo: int                 # leaf span [lo, hi)
    hi: int
    base: int               # minimum product-bit weight covered
    top: int                # one past the maximum weight covered
    slot: int


class _PlanBuilder:
    def __init__(self, leaf_count: int):
        self.leaf_count = leaf_count
        self.n_slots = leaf_count
        self.steps: list[tuple[int, int, int, int]] = []

    def merge(self, s1: _Stream, s2: _Stream) -> _Stream:
        """Combine two streams of one operation; concat when they are raw
        adjacent runs of a single segment, shift-add otherwise."""
        concat = s1.sid is not None and s1.sid == s2.sid
        lo_s, hi_s = (s1, s2) if s1.base <= s2.base else (s2, s1)
        if concat and lo_s.top != hi_s.base:
            raise ControlError("concat operands are not contiguous")
        dst = self.n_slots
        self.n_slots += 1
        self.steps.append((dst, lo_s.slot, hi_s.slot, hi_s.base - lo_s.base))
        return _Stream(
            oid=s1.oid,
            sid=s1.sid if concat else None,
            lo=min(s1.lo, s2.lo),
            hi=max(s1.hi, s2.hi),
            base=lo_s.base,
            top=max(s1.top, s2.top) + (0 if concat else 1),
            slot=dst,
        )


def _validate_leaf_labels(oids, sids) -> dict[int, tuple[int, int]]:
    """Check contiguous non-decreasing operation runs; return leaf spans."""
    spans: dict[int, tuple[int, int]] = {}
    prev = None
    for k, oid in enumerate(oids):
        if oid is None:
            continue
        if oid in spans:
            lo, hi = spans[oid]
            if k != hi or prev != oid:
                raise ControlError(f"operation {oid} occupies non-contiguous leaves")
            spans[oid] = (lo, k + 1)
        else:
            spans[oid] = (k, k + 1)
        prev = oid
    for oid, (lo, hi) in spans.items():
        run = [sids[k] for k in range(lo, hi)]
        if any(s is None for s in run):
            raise ControlError(f"operation {oid} has unlabeled segment bits")
        if any(b < a for a, b in zip(run, run[1:])):
            raise ControlError(f"operation {oid} has non-monotone segment ids")
    return spans


def compile_reduction_tree(oids, sids):
    """Assign switch modes level by level, bottom up, right to left.

    At every node the meeting pair across its center merges when both
    sides belong to one operation: a concat if they continue one segment,
    a shift-add if they cross segments. A node whose children both carry
    one operation may additionally consume the neighbor stream arriving on
    its right-hand link (the continuation fragment of the same operation),
    giving the three-input modes. Completed operations are emitted at the
    node where their span closes.

    Returns (modes, plan): modes[level][node] for levels 1..log2(width),
    and the executable TreePlan.
    """
    leaf_count = len(oids)
    spans = _validate_leaf_labels(oids, sids)
    width = 1
    while width < max(leaf_count, 2):
        width *= 2

    plan = _PlanBuilder(leaf_count)
    outputs: dict[int, int] = {}

    def maybe_emit(s: _Stream) -> bool:
        lo, hi = spans[s.oid]
        if (s.lo, s.hi) == (lo, hi):
            if s.base != 0:
                raise ControlError(f"operation {s.oid} completed at nonzero base")
            outputs[s.oid] = s.slot
            return True
        return False

    # leaf level: one stream per active leaf; weight = in-segment offset + sid
    level: list[list[_Stream]] = []
    run_pos = 0
    prev_key = None
    for k in range(width):
        cell: list[_Stream] = []
        if k < leaf_count and oids[k] is not None:
            key = (oids[k], sids[k])
            run_pos = run_pos + 1 if key == prev_key else 0
            prev_key = key
            w = run_pos + sids[k]
            s = _Stream(oids[k], sids[k], k, k + 1, w, w + 1, k)
            if not maybe_emit(s):
                cell.append(s)
        else:
            prev_key = None
        level.append(cell)

    modes: list[list[SwitchMode]] = []
    nodes = width // 2
    while nodes >= 1:
        out: list[list[_Stream]] = [[] for _ in range(nodes)]
        mode_row = [_IDLE] * nodes
        for n in range(nodes - 1, -1, -1):
            left, right = level[2 * n], level[2 * n + 1]
            streams = left + right
            kind, side = ModeKind.IDLE, Side.NONE
            merged = None
            if left and right and left[-1].oid == right[0].oid:
                center_concat = (
                    left[-1].sid is not None and left[-1].sid == right[0].sid
                )
                pure = len(left) == 1 and len(right) == 1
                link = None
                if pure and n % 2 == 1 and n + 1 < nodes and out[n + 1]:
                    if out[n + 1][0].oid == left[0].oid:
                        link = out[n + 1].pop(0)
                if link is None:
                    merged = plan.merge(left[-1], right[0])
                    kind = ModeKind.C2 if center_concat else ModeKind.A2
                elif center_concat:
                    inner = plan.merge(left[0], right[0])
                    if link.sid is not None and link.sid == inner.sid:
                        kind, side = ModeKind.C3, Side.RIGHT
                    else:
                        kind, side = ModeKind.CONCAT_ADD, Side.RIGHT
                    merged = plan.merge(inner, link)
                else:
                    if link.sid is not None and link.sid == right[0].sid:
                        # the link continues the right child's segment:
                        # concat those two, then one add with the left child
                        kind, side = ModeKind.CONCAT_ADD, Side.RIGHT
                        merged = plan.merge(plan.merge(right[0], link), left[0])
                    else:
                        kind, side = ModeKind.A3, Side.RIGHT
                        merged = plan.merge(plan.merge(left[0], right[0]), link)
                streams = left[:-1] + [merged] + right[1:]
                if maybe_emit(merged):
                    streams.remove(merged)
            elif streams:
                kind = ModeKind.D
            mode_row[n] = SwitchMode(kind, side)
            out[n] = streams
        modes.append(mode_row)
        level = out
        nodes //= 2

    if level[0]:
        raise ControlError(f"{len(level[0])} stream(s) never completed an operation")
    n_ops = len(spans)
    if set(outputs) != set(range(n_ops)) or set(spans) != set(range(n_ops)):
        raise ControlError("operation ids must be 0..n-1 and all complete")
    out_slots = tuple(outputs[o] for o in range(n_ops))
    return modes, TreePlan(leaf_count, plan.n_slots, tuple(plan.steps), out_slots)


# --------------------------------------------------------------------------
# Alignment (concat-shift) lanes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CstConfig:
    """Alignment-tree lanes: each product occupies one lane and is shifted
    right within it; bits leaving the lane bottom are dropped."""

    lane_width: int
    lanes_per_pass: int


def compile_alignment(fmt_a: FormatSpec, fmt_w: FormatSpec, out_fmt: FormatSpec, cfg: PEConfig) -> CstConfig:
    if fmt_a.kind is Kind.FLOAT:
        product_width = fmt_a.man_bits + fmt_w.man_bits + 2
    else:
        product_width = max(1, fmt_a.man_bits + fmt_w.man_bits)
    lane = min(cfg.shift_tree_bits, max(product_width, 2))
    lanes = max(1, cfg.shift_tree_bits // lane)
    return CstConfig(lane_width=lane, lanes_per_pass=lanes)


# --------------------------------------------------------------------------
# Bundle
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ControlBundle:
    """All per-layer control state, immutable and broadcastable."""

    fmt_a: FormatSpec
    fmt_w: FormatSpec
    out_fmt: FormatSpec
    cfg: PEConfig
    sep_routes: dict
    prim: PrimLayout
    tree_modes: tuple
    tree_plan: TreePlan
    adder_breaks: tuple
    add_width: int
    cst: CstConfig
    int_mode: bool

    @property
    def n_acts(self) -> int:
        return self.prim.n_acts

    @property
    def n_wgts(self) -> int:
        return self.prim.n_wgts

    @property
    def ops_per_load(self) -> int:
        return self.prim.n_acts * self.prim.n_wgts


def compile_bundle(fmt_a: FormatSpec, fmt_w: FormatSpec, out_fmt: FormatSpec, cfg: PEConfig | None = None) -> ControlBundle:
    """Compose every compiler product for one (activation, weight) format
    pair. Deterministic; identical inputs give identical bundles."""
    cfg = cfg or PEConfig()
    sep = compile_separator(fmt_a, fmt_w, cfg)
    prim = compile_primgen(fmt_a, fmt_w, cfg)
    if prim.num_prims:
        modes, plan = compile_reduction_tree(list(prim.oids), list(prim.sids))
        modes = tuple(tuple(row) for row in modes)
    else:
        modes, plan = (), TreePlan(0, 0, (), tuple([None] * prim.ops_per_pass))
    breaks, add_width = compile_exp_adder(fmt_a, fmt_w, cfg)
    cst = compile_alignment(fmt_a, fmt_w, out_fmt, cfg)
    return ControlBundle(
        fmt_a=fmt_a,
        fmt_w=fmt_w,
        out_fmt=out_fmt,
        cfg=cfg,
        sep_routes=sep,
        prim=prim,
        tree_modes=modes,
        tree_plan=plan,
        adder_breaks=tuple(breaks),
        add_width=add_width,
        cst=cst,
        int_mode=fmt_a.kind is Kind.INT,
    )


def bundle_to_text(bundle: ControlBundle) -> str:
    """Human-readable serialization with a deterministic field order, for
    golden-file comparisons."""
    lines = [
        f"formats: act={bundle.fmt_a} wgt={bundle.fmt_w} out={bundle.out_fmt}",
        f"pe: reg_width={bundle.cfg.reg_width} man={bundle.cfg.man_reg_bits}"
        f" exp={bundle.cfg.exp_reg_bits} sign={bundle.cfg.sign_reg_bits}"
        f" prim={bundle.cfg.prim_reg_bits} add={bundle.cfg.exp_adder_bits}"
        f" acc={bundle.cfg.acc_reg_bits} cst={bundle.cfg.shift_tree_bits}",
        f"elements: acts={bundle.n_acts} wgts={bundle.n_wgts}",
        f"ops: per_pass={bundle.prim.ops_per_pass} prims_per_op={bundle.prim.num_prims}"
        f" serialization={bundle.prim.serialization_factor}",
    ]
    for name in ("act", "wgt"):
        route = bundle.sep_routes[name]
        parts = ["-" if r is None else f"{r[0][0]}{r[1]}" for r in route]
        lines.append(f"sep.{name}: " + " ".join(parts))
    parts = [
        "-" if r is None else f"a{r[0]}*w{r[1]}" for r in bundle.prim.routes
    ]
    lines.append("prim: " + " ".join(parts))
    lines.append("oids: " + " ".join("-" if o is None else str(o) for o in bundle.prim.oids))
    lines.append("sids: " + " ".join("-" if s is None else str(s) for s in bundle.prim.sids))
    for lvl, row in enumerate(bundle.tree_modes, start=1):
        lines.append(f"tree.L{lvl}: " + " ".join(str(m) for m in row))
    lines.append("adder_breaks: " + "".join(str(b) for b in bundle.adder_breaks))
    lines.append(f"cst: lane={bundle.cst.lane_width} lanes={bundle.cst.lanes_per_pass}")
    return "\n".join(lines) + "\n"
