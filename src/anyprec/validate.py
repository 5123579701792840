"""Differential validation: datapath vs golden reference.

The sweep engine drives the bit-level datapath over exhaustive or sampled
operand grids and compares every output word against the reference
product. Small operand widths are covered exhaustively; wider ones by
seeded random sampling. On a mismatch the offending pair is re-run
through the staged pipeline with a per-stage trace dump.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .codec import FormatSpec, Kind, decode, encode, mul_ref, parse_format
from .control import PEConfig, compile_bundle
from .datapath import encode_words, products_to_words, run_cross_products, trace_multiply
from .errors import AnyprecError


def float_formats(max_total: int, min_total: int = 3) -> list[FormatSpec]:
    """All float formats with sign + e>=1 + m>=0 in the given total range."""
    out = []
    for total in range(min_total, max_total + 1):
        for e in range(1, total):
            out.append(FormatSpec(Kind.FLOAT, exp_bits=e, man_bits=total - 1 - e))
    return out


def oracle_words(words_a, words_w, fmt_a: FormatSpec, fmt_w: FormatSpec, out_fmt: FormatSpec) -> np.ndarray:
    """Vectorized reference product: decode fields, multiply exactly,
    encode with truncation. Independent of the datapath pipeline."""
    wa = np.asarray(words_a, dtype=np.int64)
    ww = np.asarray(words_w, dtype=np.int64)
    ma = wa & fmt_a.man_max
    ea = (wa >> fmt_a.man_bits) & fmt_a.exp_max
    sa = wa >> (fmt_a.man_bits + fmt_a.exp_bits)
    mw = ww & fmt_w.man_max
    ew = (ww >> fmt_w.man_bits) & fmt_w.exp_max
    sw = ww >> (fmt_w.man_bits + fmt_w.exp_bits)
    sig = ((1 << fmt_a.man_bits) + ma) * ((1 << fmt_w.man_bits) + mw)
    exp2 = (
        ea + ew
        - fmt_a.bias_value - fmt_w.bias_value
        - fmt_a.man_bits - fmt_w.man_bits
    )
    sig = np.where((wa == 0) | (ww == 0), 0, sig)
    return encode_words(sa ^ sw, sig, exp2, out_fmt)


def oracle_words_scalar(word_a: int, word_w: int, fmt_a, fmt_w, out_fmt) -> int:
    """Same reference via the scalar codec (used to cross-check the
    vectorized oracle)."""
    return encode(mul_ref(decode(word_a, fmt_a), decode(word_w, fmt_w)), out_fmt).word()


@dataclass
class SweepResult:
    fmt_a: str
    fmt_w: str
    cases: int
    mismatches: int
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def _operand_grids(fmt: FormatSpec, exhaustive: bool, samples: int, rng: random.Random) -> np.ndarray:
    if exhaustive:
        return np.arange(1 << fmt.total_bits, dtype=np.int64)
    return np.asarray([rng.randrange(1 << fmt.total_bits) for _ in range(samples)], dtype=np.int64)


def _cross_rows(grid_a: np.ndarray, grid_w: np.ndarray, na: int, nw: int):
    """Register rows for every (chunk_a, chunk_w) combination, chunk_a
    outermost. Each grid is cut into chunks of na / nw words, the last one
    zero-padded; mask[r, o] marks the products whose operands both come
    from the grids (operation o pairs slot o % na with slot o // na)."""

    def chunks(grid, n):
        k = -(-len(grid) // n)
        words = np.zeros(k * n, dtype=np.int64)
        words[: len(grid)] = grid
        return k, words.reshape(k, n), (np.arange(k * n) < len(grid)).reshape(k, n)

    k_a, pad_a, valid_a = chunks(grid_a, na)
    k_w, pad_w, valid_w = chunks(grid_w, nw)
    ops = np.arange(na * nw)
    mask = np.repeat(valid_a[:, ops % na], k_w, axis=0) & np.tile(valid_w[:, ops // na], (k_a, 1))
    return np.repeat(pad_a, k_w, axis=0), np.tile(pad_w, (k_a, 1)), mask


def sweep_pair(
    fmt_a: FormatSpec,
    fmt_w: FormatSpec,
    cfg: PEConfig | None = None,
    out_fmt: FormatSpec | None = None,
    exhaustive_bits: int = 8,
    samples: int = 10_000,
    rng: random.Random | None = None,
) -> SweepResult:
    """Compare the datapath against the reference for one format pair.

    Both operands at or below `exhaustive_bits` wide: every word pair.
    Otherwise: at least `samples` random pairs, materialized as register
    cross products so each load covers a full operand-chunk grid.
    """
    cfg = cfg or PEConfig()
    out_fmt = out_fmt or fmt_a
    rng = rng or random.Random(0)
    bundle = compile_bundle(fmt_a, fmt_w, out_fmt, cfg)
    exhaustive = fmt_a.total_bits <= exhaustive_bits and fmt_w.total_bits <= exhaustive_bits
    per_side = max(1, int(samples ** 0.5) + 1)
    grid_a = _operand_grids(fmt_a, exhaustive, per_side, rng)
    grid_w = _operand_grids(fmt_w, exhaustive, per_side, rng)

    na, nw = bundle.n_acts, bundle.n_wgts
    a_of = np.arange(na * nw) % na
    w_of = np.arange(na * nw) // na
    rows_a, rows_w, mask = _cross_rows(grid_a, grid_w, na, nw)

    raw = run_cross_products(bundle, rows_a, rows_w)
    got = products_to_words(raw, bundle, out_fmt)
    want = oracle_words(rows_a[:, a_of], rows_w[:, w_of], fmt_a, fmt_w, out_fmt)

    bad = (got != want) & mask
    cases = int(mask.sum())
    mismatches = int(bad.sum())
    first = None
    if mismatches:
        r, o = np.argwhere(bad)[0]
        wa, ww = int(rows_a[r, a_of[o]]), int(rows_w[r, w_of[o]])
        first = (
            f"{fmt_a}x{fmt_w} word_a={wa:#x} word_w={ww:#x} "
            f"got={int(got[r, o]):#x} want={int(want[r, o]):#x}\n"
            + trace_multiply(bundle, wa, ww)
        )
    return SweepResult(str(fmt_a), str(fmt_w), cases, mismatches, first)


def sweep_all_pairs(
    max_bits: int = 12,
    exhaustive_bits: int = 8,
    samples: int = 10_000,
    seed: int = 0,
    out_fmt_policy: str = "act",
    progress=None,
) -> list[SweepResult]:
    """The master equivalence sweep over every float format pair."""
    fmts = float_formats(max_bits)
    results = []
    rng = random.Random(seed)
    for fa in fmts:
        for fw in fmts:
            out_fmt = fa if out_fmt_policy == "act" else parse_format(out_fmt_policy)
            results.append(
                sweep_pair(
                    fa, fw,
                    out_fmt=out_fmt,
                    exhaustive_bits=exhaustive_bits,
                    samples=samples,
                    rng=rng,
                )
            )
            if progress is not None:
                progress(results[-1])
    return results


def oracle_self_check(samples: int = 2000, seed: int = 1, max_bits: int = 12) -> int:
    """Verify the vectorized oracle against the scalar codec reference on
    random cases; returns the number of agreements checked."""
    rng = random.Random(seed)
    fmts = float_formats(max_bits)
    checked = 0
    for _ in range(samples):
        fa, fw = rng.choice(fmts), rng.choice(fmts)
        out = rng.choice([fa, fw])
        wa = rng.randrange(1 << fa.total_bits)
        ww = rng.randrange(1 << fw.total_bits)
        vec = int(oracle_words([wa], [ww], fa, fw, out)[0])
        ref = oracle_words_scalar(wa, ww, fa, fw, out)
        if vec != ref:
            raise AnyprecError(
                f"oracle divergence: {fa}x{fw}->{out} a={wa:#x} w={ww:#x} vec={vec:#x} ref={ref:#x}"
            )
        checked += 1
    return checked
