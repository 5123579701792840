"""Bit-level functional model of one processing element.

Every stage operates on numpy bit arrays whose last axis is the register
width; leading axes batch register loads. One code path serves a single
multiply (batch of 1), a GEMM tile (every register load of the tile in
one batch) and the exhaustive verification sweeps. Mantissa products are
built from bit-product primitives reduced by the compiled tree plan;
exponents travel through the segmented carry-chain adder; results encode
through truncation with saturation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bitpack import PackedBuffer
from .codec import ExactNumber, FormatSpec, Kind, ScalarValue, decode, encode
from .control import ControlBundle
from .errors import CapacityError, ControlError, ShapeError


@dataclass
class PERegisters:
    """Register state of one PE (batched along leading axes). Accumulator
    contents are held exactly and truncate once at tile finalization."""

    act_reg: np.ndarray
    wgt_reg: np.ndarray
    act_sign: np.ndarray | None = None
    act_exp: np.ndarray | None = None
    act_man: np.ndarray | None = None
    wgt_sign: np.ndarray | None = None
    wgt_exp: np.ndarray | None = None
    wgt_man: np.ndarray | None = None


def words_to_bits(words: np.ndarray, width: int) -> np.ndarray:
    """Expand packed words (..., n) into a bit register (..., n*width),
    each word MSB-first."""
    words = np.asarray(words, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = (words[..., :, None] >> shifts) & 1
    return bits.reshape(*words.shape[:-1], words.shape[-1] * width).astype(np.int8)


def load_registers(bundle: ControlBundle, words_a, words_w) -> PERegisters:
    """Fill the packed act/wgt registers from element words (zero-padded to
    the element capacity)."""
    cfg = bundle.cfg
    words_a = np.asarray(words_a, dtype=np.int64)
    words_w = np.asarray(words_w, dtype=np.int64)
    if words_a.shape[-1] > bundle.n_acts or words_w.shape[-1] > bundle.n_wgts:
        raise CapacityError(
            f"load of {words_a.shape[-1]}x{words_w.shape[-1]} exceeds "
            f"{bundle.n_acts}x{bundle.n_wgts} element capacity"
        )

    def _reg(words, fmt, cap):
        pad = cap - words.shape[-1]
        if pad:
            words = np.concatenate(
                [words, np.zeros(words.shape[:-1] + (pad,), dtype=np.int64)], axis=-1
            )
        bits = words_to_bits(words, fmt.total_bits)
        tail = cfg.reg_width - bits.shape[-1]
        if tail > 0:
            bits = np.concatenate(
                [bits, np.zeros(bits.shape[:-1] + (tail,), dtype=np.int8)], axis=-1
            )
        return bits

    return PERegisters(
        act_reg=_reg(words_a, bundle.fmt_a, bundle.n_acts),
        wgt_reg=_reg(words_w, bundle.fmt_w, bundle.n_wgts),
    )


def separate(regs: PERegisters, bundle: ControlBundle) -> PERegisters:
    """Route packed register bits into the sign/exponent/mantissa registers
    per the compiled crossbar routes. No bit is lost or duplicated."""
    for name, reg in (("act", regs.act_reg), ("wgt", regs.wgt_reg)):
        route = bundle.sep_routes[name]
        dests = {"sign": [], "exp": [], "man": []}
        for i, r in enumerate(route):
            if r is not None:
                dests[r[0]].append(i)
        picked = {}
        for kind, idxs in dests.items():
            picked[kind] = (
                reg[..., np.asarray(idxs, dtype=np.intp)]
                if idxs
                else np.zeros(reg.shape[:-1] + (0,), dtype=reg.dtype)
            )
        if name == "act":
            regs.act_sign, regs.act_exp, regs.act_man = picked["sign"], picked["exp"], picked["man"]
        else:
            regs.wgt_sign, regs.wgt_exp, regs.wgt_man = picked["sign"], picked["exp"], picked["man"]
    return regs


def gen_primitives(regs: PERegisters, bundle: ControlBundle, pass_idx: int = 0) -> np.ndarray:
    """AND each routed activation/weight mantissa bit pair into the
    primitive register; unrouted bits stay 0."""
    prim = bundle.prim
    out = np.zeros(regs.act_reg.shape[:-1] + (bundle.cfg.prim_reg_bits,), dtype=np.int8)
    if prim.num_prims == 0:
        return out
    base_op = pass_idx * prim.ops_per_pass
    bm_a, bm_w = bundle.fmt_a.man_bits, bundle.fmt_w.man_bits
    a_idx, w_idx, slots = [], [], []
    for slot, r in enumerate(prim.routes):
        if r is None:
            continue
        o_local = slot // prim.num_prims
        o = base_op + o_local
        if o >= bundle.ops_per_load:
            continue
        a, w = o % prim.n_acts, o // prim.n_acts
        within = slot % prim.num_prims
        j, i = within // bm_a, within % bm_a
        a_idx.append(a * bm_a + (bm_a - 1 - i))
        w_idx.append(w * bm_w + (bm_w - 1 - j))
        slots.append(slot)
    if slots:
        out[..., np.asarray(slots, dtype=np.intp)] = (
            regs.act_man[..., np.asarray(a_idx, dtype=np.intp)]
            & regs.wgt_man[..., np.asarray(w_idx, dtype=np.intp)]
        )
    return out


def run_reduction_tree(prim_reg, bundle: ControlBundle) -> list:
    """Reduce primitive bits to one raw mantissa product per operation
    (the product of the stored fields, without implicit ones)."""
    plan = bundle.tree_plan
    if plan.leaf_count == 0:
        return [0] * len(plan.outputs)
    prim = np.asarray(prim_reg)
    if prim.shape[-1] < plan.leaf_count:
        raise ControlError("primitive register narrower than the tree plan")
    leaves = list(np.moveaxis(prim[..., : plan.leaf_count], -1, 0).astype(np.int64, order="C"))
    return plan.evaluate(leaves)


def apply_implicit_one(raw, a, w, p: int, q: int):
    """Correct a raw field product to the full significand product
    (2^p + a) * (2^q + w): add the shifted weight, then the shifted
    activation together with the always-set top bit."""
    step1 = raw + (w << p)
    return step1 + (a << q) + (1 << (p + q))


@functools.lru_cache(maxsize=64)
def _uniform_segment(breaks: tuple) -> int:
    """Segment length seg when carries stop after every seg-th bit (the
    masks control.compile_exp_adder builds), else 0."""
    if 1 not in breaks:
        return 0
    seg = breaks.index(1) + 1
    if all(bool(b) == ((i + 1) % seg == 0) for i, b in enumerate(breaks)):
        return seg
    return 0


def _ripple(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
    """Ripple-carry add along the last axis into out, with no breaks."""
    carry = np.zeros(x.shape[:-1], dtype=np.int8)
    for i in range(x.shape[-1]):
        s = x[..., i] + y[..., i] + carry
        out[..., i] = s & 1
        carry = s >> 1


def segmented_add(x_bits: np.ndarray, y_bits: np.ndarray, breaks) -> np.ndarray:
    """Ripple-carry add two bit vectors; carries stop at break positions.

    Masks that break every seg bits ripple all segments side by side, as
    (..., n_seg, seg) views plus one view for a trailing partial segment;
    any other mask ripples bit by bit across the whole width."""
    x = np.asarray(x_bits, dtype=np.int8)
    y = np.asarray(y_bits, dtype=np.int8)
    if x.shape != y.shape or x.shape[-1] != len(breaks):
        raise ShapeError("operand/break widths disagree")
    out = np.zeros_like(x)
    seg = _uniform_segment(tuple(breaks))
    if seg:
        full = x.shape[-1] - x.shape[-1] % seg
        lead = x.shape[:-1]
        _ripple(*(v[..., :full].reshape(*lead, full // seg, seg) for v in (x, y, out)))
        _ripple(x[..., full:], y[..., full:], out[..., full:])
        return out
    carry = np.zeros(x.shape[:-1], dtype=np.int8)
    for i in range(x.shape[-1]):
        s = x[..., i] + y[..., i] + carry
        out[..., i] = s & 1
        carry = s >> 1
        if breaks[i]:
            carry = np.zeros_like(carry)
    return out


def _field_values(reg_bits: np.ndarray, width: int, count: int) -> np.ndarray:
    """Collect per-element field values from an MSB-first field register."""
    if width == 0:
        return np.zeros(reg_bits.shape[:-1] + (count,), dtype=np.int64)
    vals = reg_bits[..., : count * width].astype(np.int64)
    vals = vals.reshape(*reg_bits.shape[:-1], count, width)
    weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    return (vals * weights).sum(axis=-1)


def add_exponents(regs: PERegisters, bundle: ControlBundle) -> np.ndarray:
    """Sum activation and weight exponent fields per operation through the
    segmented adder; returns (..., ops_per_load) sums."""
    if bundle.add_width == 0:
        return np.zeros(regs.act_reg.shape[:-1] + (bundle.ops_per_load,), dtype=np.int64)
    seg = bundle.add_width + 1
    segs_per_pass = bundle.cfg.exp_adder_bits // seg
    lead = regs.act_reg.shape[:-1]
    ops = bundle.ops_per_load
    sums = np.zeros(lead + (ops,), dtype=np.int64)
    for start in range(0, ops, segs_per_pass):
        stop = min(start + segs_per_pass, ops)
        o = np.arange(start, stop)
        lane0 = (o - start)[:, None] * seg
        x = np.zeros(lead + (bundle.cfg.exp_adder_bits,), dtype=np.int8)
        y = np.zeros_like(x)
        # lane bit t of an operation is bit t of its operand's field, which
        # the MSB-first exponent register holds at elem * width + width - 1 - t
        for dst, reg, elem, width in (
            (x, regs.act_exp, o % bundle.n_acts, bundle.fmt_a.exp_bits),
            (y, regs.wgt_exp, o // bundle.n_acts, bundle.fmt_w.exp_bits),
        ):
            t = np.arange(width)
            dst[..., (lane0 + t).ravel()] = reg[..., (elem[:, None] * width + width - 1 - t).ravel()]
        out = segmented_add(x, y, bundle.adder_breaks)
        lanes = out[..., : (stop - start) * seg].reshape(*lead, stop - start, seg)
        for t in range(seg):
            sums[..., start:stop] += lanes[..., t].astype(np.int64) << t
    return sums


@dataclass
class RawProducts:
    """Per-operation cross products of one register load, before encoding."""

    sig: np.ndarray       # full significand product (float) or |a*w| (int)
    exp_sum: np.ndarray   # biased exponent-field sum (float mode)
    sign: np.ndarray
    zero: np.ndarray
    n_acts: int
    n_wgts: int

    def op_index(self, a: int, w: int) -> int:
        return w * self.n_acts + a


def run_cross_products(bundle: ControlBundle, words_a, words_w) -> RawProducts:
    """Drive one register load through every multiply stage, producing all
    n_acts x n_wgts products."""
    words_a = np.asarray(words_a, dtype=np.int64)
    words_w = np.asarray(words_w, dtype=np.int64)
    regs = separate(load_registers(bundle, words_a, words_w), bundle)
    prim = bundle.prim
    ops = bundle.ops_per_load

    raws = [None] * ops
    if prim.num_prims:
        for p in range(prim.serialization_factor):
            bits = gen_primitives(regs, bundle, pass_idx=p)
            outs = run_reduction_tree(bits, bundle)
            for o_local, val in enumerate(outs):
                o = p * prim.ops_per_pass + o_local
                if o < ops:
                    raws[o] = val
    base = np.zeros(words_a.shape[:-1], dtype=np.int64)
    raws = [base.copy() if r is None or np.isscalar(r) and r == 0 else r for r in raws]

    bm_a, bm_w = bundle.fmt_a.man_bits, bundle.fmt_w.man_bits
    a_val = _field_values(regs.act_man, bm_a, bundle.n_acts)
    w_val = _field_values(regs.wgt_man, bm_w, bundle.n_wgts)
    if bundle.fmt_a.signed:
        s_a = regs.act_sign[..., : bundle.n_acts].astype(np.int64)
    else:
        s_a = np.zeros(words_a.shape[:-1] + (bundle.n_acts,), dtype=np.int64)
    if bundle.fmt_w.signed:
        s_w = regs.wgt_sign[..., : bundle.n_wgts].astype(np.int64)
    else:
        s_w = np.zeros(words_w.shape[:-1] + (bundle.n_wgts,), dtype=np.int64)

    a_of = np.arange(ops) % bundle.n_acts
    w_of = np.arange(ops) // bundle.n_acts

    sig = np.stack(raws, axis=-1)
    if not bundle.int_mode:
        sig = apply_implicit_one(
            sig, a_val[..., a_of], w_val[..., w_of], bm_a, bm_w
        )
        exp_sum = add_exponents(regs, bundle)
    else:
        exp_sum = np.zeros_like(sig)

    # zero operands bypass the implicit-1 machinery: an all-zero float word
    # (or a zero int magnitude) marks the product zero
    pad_a = bundle.n_acts - words_a.shape[-1]
    pad_w = bundle.n_wgts - words_w.shape[-1]
    if bundle.int_mode:
        za_head = a_val[..., : words_a.shape[-1]] == 0
        zw_head = w_val[..., : words_w.shape[-1]] == 0
    else:
        za_head = words_a == 0
        zw_head = words_w == 0
    za = np.concatenate(
        [za_head, np.ones(words_a.shape[:-1] + (pad_a,), dtype=bool)], axis=-1
    )
    zw = np.concatenate(
        [zw_head, np.ones(words_w.shape[:-1] + (pad_w,), dtype=bool)], axis=-1
    )
    zero = za[..., a_of] | zw[..., w_of]

    sign = s_a[..., a_of] ^ s_w[..., w_of]
    return RawProducts(sig=sig, exp_sum=exp_sum, sign=sign, zero=zero,
                       n_acts=bundle.n_acts, n_wgts=bundle.n_wgts)


def encode_words(sign: np.ndarray, sig: np.ndarray, exp2: np.ndarray, fmt: FormatSpec) -> np.ndarray:
    """Vectorized truncating encode of (-1)^sign * sig * 2^exp2 into words.

    Mirrors codec.encode for values with significands below 2^53."""
    sig = np.asarray(sig, dtype=np.int64)
    zero = sig == 0
    safe = np.where(zero, 1, sig)
    if fmt.kind is Kind.INT:
        mag = np.where(exp2 >= 0, safe << np.maximum(exp2, 0), safe >> np.maximum(-exp2, 0))
        mag = np.minimum(mag, fmt.man_max)
        neg_unsigned = (sign == 1) & ~fmt.signed
        word = np.where(
            fmt.signed, (sign << fmt.man_bits) | mag, mag
        )
        word = np.where(zero | neg_unsigned | (mag == 0), 0, word)
        return word
    k = np.frexp(safe.astype(np.float64))[1].astype(np.int64) - 1
    unbiased = k + exp2
    drop = k - fmt.man_bits
    man_hi = (safe >> np.maximum(drop, 0)) & fmt.man_max
    man_lo = (safe << np.maximum(-drop, 0)) - (1 << fmt.man_bits)
    man = np.where(drop >= 0, man_hi, man_lo)
    e_field = unbiased + fmt.bias_value
    word = (sign << (fmt.exp_bits + fmt.man_bits)) | (e_field << fmt.man_bits) | man
    sat = (sign << (fmt.exp_bits + fmt.man_bits)) | (fmt.exp_max << fmt.man_bits) | fmt.man_max
    word = np.where(e_field > fmt.exp_max, sat, word)
    word = np.where(e_field < 0, 0, word)
    return np.where(zero, 0, word)


def _product_exp_offset(bundle: ControlBundle) -> int:
    """Subtracted from a float product's biased exponent-field sum, gives
    the power of two that scales its integer significand."""
    fa, fw = bundle.fmt_a, bundle.fmt_w
    return fa.bias_value + fw.bias_value + fa.man_bits + fw.man_bits


def products_to_words(raw: RawProducts, bundle: ControlBundle, out_fmt: FormatSpec) -> np.ndarray:
    """Encode every raw product into the output format."""
    if bundle.int_mode:
        exp2 = np.zeros_like(raw.sig)
    else:
        exp2 = raw.exp_sum - _product_exp_offset(bundle)
    sig = np.where(raw.zero, 0, raw.sig)
    return encode_words(raw.sign, sig, exp2, out_fmt)


def pe_multiply(
    act_buf: PackedBuffer,
    wgt_buf: PackedBuffer,
    bundle: ControlBundle,
    out_fmt: FormatSpec | None = None,
) -> list[ScalarValue]:
    """Elementwise multiply of two equal-length packed buffers (one register
    load each); element k equals encode(mul_ref(decode(a_k), decode(w_k)))."""
    out_fmt = out_fmt or bundle.out_fmt
    if act_buf.elem_count != wgt_buf.elem_count:
        raise ShapeError("elementwise multiply needs equal-length buffers")
    n = act_buf.elem_count
    if n == 0:
        return []
    words_a = np.asarray(act_buf.words(), dtype=np.int64)[None, :]
    words_w = np.asarray(wgt_buf.words(), dtype=np.int64)[None, :]
    raw = run_cross_products(bundle, words_a, words_w)
    words = products_to_words(raw, bundle, out_fmt)
    diag = [raw.op_index(k, k) for k in range(n)]
    return [decode(int(words[0, d]), out_fmt) for d in diag]


# --------------------------------------------------------------------------
# Accumulation path
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignedOperand:
    """A signed product significand aligned to its group's reference
    exponent by a non-negative right shift."""

    significand: int
    ref_exp: int
    delta: int


def normalize_exponents(exponents) -> tuple[int, list[int]]:
    """Max-reference alignment: returns (ref, deltas) with delta_i >= 0."""
    if len(exponents) == 0:
        return 0, []
    ref = max(exponents)
    return ref, [ref - e for e in exponents]


def align_group(products) -> list[AlignedOperand]:
    """Normalize one group of (sign, magnitude, exponent) products to its
    max exponent."""
    ref, deltas = normalize_exponents([e for _, _, e in products])
    return [
        AlignedOperand(-m if s else m, ref, d)
        for (s, m, _), d in zip(products, deltas)
    ]


def concat_shift(magnitudes, deltas, lane_width: int, widths=None):
    """Shift each magnitude right by its delta inside an alignment lane.

    Values enter left-aligned (shifted up by the lane headroom); bits that
    fall off the lane bottom are dropped and counted as precision-loss
    events. A delta of at least the lane width flushes the value to zero.
    Returns (shifted values, events)."""
    events = 0
    shifted = []
    for idx, (mag, delta) in enumerate(zip(magnitudes, deltas)):
        w = widths[idx] if widths is not None else max(1, int(mag).bit_length())
        head = max(lane_width - w, 0)
        v = int(mag) << head
        kept = 0 if delta >= lane_width else v >> delta
        if (kept << delta) != v:
            events += 1
        shifted.append(kept)
    return shifted, events


def accumulate(shifted, signs, ref_scale: int, out_fmt: FormatSpec):
    """Sum aligned significands and encode once.

    ref_scale is the power-of-two scale of the aligned integers (already
    including lane headroom). Returns (ScalarValue, saturated flag)."""
    total = 0
    for v, s in zip(shifted, signs):
        total += -v if s else v
    exact = ExactNumber(1 if total < 0 else 0, abs(total), ref_scale) if total else ExactNumber.zero()
    return _finalize(exact, out_fmt)


def _finalize(exact: ExactNumber, out_fmt: FormatSpec) -> tuple[ScalarValue, bool]:
    """Truncate an exact accumulator value into the output format once.
    Returns (ScalarValue, saturated flag): a float result saturates when
    the exact value exceeds the format's max-finite magnitude."""
    out = encode(exact, out_fmt)
    saturated = (
        not exact.is_zero
        and out_fmt.kind is Kind.FLOAT
        and out.exp_field == out_fmt.exp_max
        and out.man_field == out_fmt.man_max
        and abs(exact.to_fraction()) > abs(out.to_fraction())
    )
    return out, saturated


@dataclass
class TileStats:
    precision_loss_events: int = 0
    saturations: int = 0
    register_loads: int = 0   # act/wgt register load pairs of the tile
    tree_passes: int = 0      # datapath passes: the serialization factor per load


def _group_reduce(products, bundle: ControlBundle, stats: TileStats) -> ExactNumber:
    """Reduce one group of (sign, sig, exp_sum) products: normalize to the
    max exponent, align in lanes, sum exactly, return the exact group value."""
    live = [(s, m, e) for s, m, e in products if m]
    if not live:
        return ExactNumber.zero()
    if bundle.int_mode:
        total = sum(-m if s else m for s, m, _ in live)
        return ExactNumber.from_int(total)
    pw = bundle.fmt_a.man_bits + bundle.fmt_w.man_bits + 2
    lane = bundle.cst.lane_width
    head = lane - pw
    aligned = align_group(live)
    shifted, events = concat_shift(
        [abs(op.significand) for op in aligned],
        [op.delta for op in aligned],
        lane,
        widths=[pw] * len(aligned),
    )
    stats.precision_loss_events += events
    scale = (aligned[0].ref_exp - _product_exp_offset(bundle)) - head
    total = 0
    for v, op in zip(shifted, aligned):
        total += -v if op.significand < 0 else v
    if total == 0:
        return ExactNumber.zero()
    return ExactNumber(1 if total < 0 else 0, abs(total), scale)


def pe_mac_tile(
    a_tile: PackedBuffer,
    w_tile: PackedBuffer,
    m: int,
    n: int,
    k: int,
    bundle: ControlBundle,
    out_fmt: FormatSpec | None = None,
    mx_scales: tuple[ScalarValue, ScalarValue] | None = None,
) -> tuple[PackedBuffer, TileStats]:
    """Outer-product GEMM tile: A is m x k (row-major), W is k x n
    (row-major); returns m x n outputs packed row-major.

    Products for one output are reduced in groups of the alignment-lane
    count; group values combine exactly and truncate once at finalization,
    where microscaling factors are also applied.
    """
    out_fmt = out_fmt or bundle.out_fmt
    if a_tile.elem_count != m * k:
        raise ShapeError(f"A tile holds {a_tile.elem_count} elements, needs {m * k}")
    if w_tile.elem_count != k * n:
        raise ShapeError(f"W tile holds {w_tile.elem_count} elements, needs {k * n}")
    na, nw = bundle.n_acts, bundle.n_wgts
    mb, nb = -(-m // na), -(-n // nw)
    # pad the ragged last m/n block with word 0, as capacity padding inside
    # a register load does; products of padded rows/columns are dropped
    a_pad = np.zeros((mb * na, k), dtype=np.int64)
    a_pad[:m] = np.asarray(a_tile.words(), dtype=np.int64).reshape(m, k)
    w_pad = np.zeros((k, nb * nw), dtype=np.int64)
    w_pad[:, :n] = np.asarray(w_tile.words(), dtype=np.int64).reshape(k, n)
    # one register load per (kk, m0, n0) block, all driven as one batch
    words_a = np.broadcast_to(a_pad.T.reshape(k, mb, 1, na), (k, mb, nb, na)).reshape(-1, na)
    words_w = np.broadcast_to(w_pad.reshape(k, 1, nb, nw), (k, mb, nb, nw)).reshape(-1, nw)
    raw = run_cross_products(bundle, words_a, words_w)
    loads = len(words_a)
    stats = TileStats(register_loads=loads, tree_passes=loads * bundle.prim.serialization_factor)

    def per_output(v):
        # (load, op) with op = w * n_acts + a  ->  nested [row][col][kk] lists
        v = v.reshape(k, mb, nb, nw, na).transpose(1, 4, 2, 3, 0)
        return v.reshape(mb * na, nb * nw, k)[:m, :n].tolist()

    sig, exp_sum, sign, zero = (
        per_output(v) for v in (raw.sig, raw.exp_sum, raw.sign, raw.zero)
    )

    scale = ExactNumber(0, 1, 0)
    if mx_scales is not None:
        scale = mx_scales[0].to_exact().mul(mx_scales[1].to_exact())

    group = bundle.cst.lanes_per_pass
    out_words = []
    for i in range(m):
        for j in range(n):
            prods = [
                (s, g, e)
                for s, g, e, z in zip(sign[i][j], sig[i][j], exp_sum[i][j], zero[i][j])
                if not z
            ]
            acc = ExactNumber.zero()
            for g0 in range(0, len(prods), group):
                acc = acc.add(_group_reduce(prods[g0 : g0 + group], bundle, stats))
            out, saturated = _finalize(acc.mul(scale), out_fmt)
            stats.saturations += saturated
            out_words.append(out.word())
    return PackedBuffer.from_words(out_words, out_fmt), stats


# --------------------------------------------------------------------------
# Trace dump for differential debugging
# --------------------------------------------------------------------------


def trace_multiply(bundle: ControlBundle, word_a: int, word_w: int) -> str:
    """Per-stage register dump for one operand pair, deterministic text."""
    regs = separate(load_registers(
        bundle,
        np.asarray([[word_a]], dtype=np.int64),
        np.asarray([[word_w]], dtype=np.int64),
    ), bundle)
    lines = [
        f"act_word: {word_a:0{bundle.fmt_a.total_bits}b}",
        f"wgt_word: {word_w:0{bundle.fmt_w.total_bits}b}",
        "act_reg:  " + "".join(map(str, regs.act_reg[0].tolist())),
        "wgt_reg:  " + "".join(map(str, regs.wgt_reg[0].tolist())),
        "act s/e/m: "
        + "".join(map(str, regs.act_sign[0].tolist()))
        + " / " + "".join(map(str, regs.act_exp[0].tolist()))
        + " / " + "".join(map(str, regs.act_man[0].tolist())),
        "wgt s/e/m: "
        + "".join(map(str, regs.wgt_sign[0].tolist()))
        + " / " + "".join(map(str, regs.wgt_exp[0].tolist()))
        + " / " + "".join(map(str, regs.wgt_man[0].tolist())),
    ]
    bits = gen_primitives(regs, bundle, 0)
    lines.append("prim_reg: " + "".join(map(str, bits[0].tolist())))
    outs = run_reduction_tree(bits, bundle)
    lines.append("tree_out[0]: " + str(int(np.asarray(outs[0]).reshape(-1)[0])))
    raw = run_cross_products(
        bundle,
        np.asarray([[word_a]], dtype=np.int64),
        np.asarray([[word_w]], dtype=np.int64),
    )
    o = raw.op_index(0, 0)
    lines.append(f"significand: {int(raw.sig[0, o])}")
    lines.append(f"exp_sum: {int(raw.exp_sum[0, o])}")
    lines.append(f"sign: {int(raw.sign[0, o])}  zero: {bool(raw.zero[0, o])}")
    word = int(products_to_words(raw, bundle, bundle.out_fmt)[0, o])
    lines.append(f"out_word: {word:0{bundle.out_fmt.total_bits}b}")
    return "\n".join(lines) + "\n"
