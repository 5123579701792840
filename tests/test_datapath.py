"""Datapath stages: tree execution, implicit-1, segmented adds, multiply
and accumulate contracts, tiles, microscaling."""

import random
from fractions import Fraction

import numpy as np
import pytest

from anyprec.bitpack import PackedBuffer
from anyprec.codec import (
    ExactNumber,
    MxBlock,
    decode,
    encode,
    mul_ref,
    mx_dot_ref,
    parse_format,
)
from anyprec.codec import Kind
from anyprec.control import PEConfig, compile_bundle, compile_exp_adder, compile_reduction_tree
from anyprec.datapath import (
    TileStats,
    _group_reduce,
    accumulate,
    apply_implicit_one,
    concat_shift,
    gen_primitives,
    load_registers,
    normalize_exponents,
    pe_mac_tile,
    pe_multiply,
    run_cross_products,
    run_reduction_tree,
    segmented_add,
    separate,
    trace_multiply,
    products_to_words,
)
from anyprec.errors import ShapeError
from anyprec.validate import _cross_rows, _operand_grids, float_formats, sweep_pair
from anyprec.workloads import DEFAULT_SWEEP_PAIRS

FP6 = parse_format("e2m3")
FP5 = parse_format("e2m2")
FP8 = parse_format("e4m3")
FP16 = parse_format("e5m10")


def make_buf(words, fmt):
    return PackedBuffer.from_words(words, fmt)


class TestTree:
    def test_small_example(self):
        # a=101 (5), w=11 (3) -> 15
        oids = [0] * 6
        sids = [0, 0, 0, 1, 1, 1]
        _, plan = compile_reduction_tree(oids, sids)
        a, w = 0b101, 0b11
        leaves = [((a >> i) & 1) & ((w >> j) & 1) for j in range(2) for i in range(3)]
        assert plan.evaluate(leaves) == [15]

    def test_zero_weight(self):
        oids, sids = [0] * 6, [0, 0, 0, 1, 1, 1]
        _, plan = compile_reduction_tree(oids, sids)
        assert plan.evaluate([0] * 6) == [0]

    @pytest.mark.parametrize("p", range(1, 7))
    @pytest.mark.parametrize("q", range(1, 7))
    def test_exhaustive_all_patterns(self, p, q):
        oids = [0] * (p * q)
        sids = [j for j in range(q) for _ in range(p)]
        _, plan = compile_reduction_tree(oids, sids)
        # batch all (a, w) patterns as numpy leaves
        aa, ww = np.meshgrid(np.arange(1 << p), np.arange(1 << q), indexing="ij")
        aa, ww = aa.ravel(), ww.ravel()
        leaves = [((aa >> i) & 1) & ((ww >> j) & 1) for j in range(q) for i in range(p)]
        (out,) = plan.evaluate(leaves)
        assert np.array_equal(out, aa * ww)


class TestImplicitOne:
    def test_example(self):
        assert apply_implicit_one(5 * 3, 5, 3, 3, 2) == (8 + 5) * (4 + 3) == 91

    def test_zero_fields(self):
        assert apply_implicit_one(0, 0, 0, 3, 2) == 1 << 5

    def test_zero_width_mantissas(self):
        assert apply_implicit_one(0, 0, 0, 0, 0) == 1


class TestSegmentedAdd:
    def _add(self, xs, ys, width, total=144):
        seg = width + 1
        breaks = [1 if (i + 1) % seg == 0 else 0 for i in range(total)]
        x = np.zeros(total, dtype=np.int8)
        y = np.zeros(total, dtype=np.int8)
        for k, (a, b) in enumerate(zip(xs, ys)):
            for t in range(width):
                x[k * seg + t] = (a >> t) & 1
                y[k * seg + t] = (b >> t) & 1
        out = segmented_add(x, y, breaks)
        sums = []
        for k in range(len(xs)):
            lane = out[k * seg : (k + 1) * seg]
            sums.append(int(sum(int(b) << t for t, b in enumerate(lane))))
        return sums

    def test_two_segments_one_pass(self):
        assert self._add([3, 1], [2, 1], 3) == [5, 2]

    def test_all_zero(self):
        assert self._add([0] * 8, [0] * 8, 4) == [0] * 8

    def test_guard_bit_blocks_cross_segment_carry(self):
        # max 3-bit exponents everywhere: sums stay independent
        sums = self._add([7] * 10, [7] * 10, 3)
        assert sums == [14] * 10

    @staticmethod
    def _ripple_reference(x, y, breaks):
        # plain per-bit ripple over the whole width
        out = np.zeros_like(x)
        carry = np.zeros(x.shape[:-1], dtype=np.int8)
        for i in range(x.shape[-1]):
            s = x[..., i] + y[..., i] + carry
            out[..., i] = s & 1
            carry = s >> 1
            if breaks[i]:
                carry = np.zeros_like(carry)
        return out

    def test_every_compiled_mask_matches_per_bit_ripple(self):
        masks = {
            tuple(compile_exp_adder(fa, fw, PEConfig())[0])
            for fa in float_formats(12)
            for fw in float_formats(12)
        }
        seg_lengths = {m.index(1) + 1 for m in masks if 1 in m}
        # seg 5 and 7 do not divide 144, so the trailing partial segment runs
        assert {5, 7} <= seg_lengths and 144 % 5 and 144 % 7
        rng = np.random.default_rng(8)
        for breaks in sorted(masks):
            x = rng.integers(0, 2, size=(3, 5, 144), dtype=np.int8)
            y = rng.integers(0, 2, size=(3, 5, 144), dtype=np.int8)
            got = segmented_add(x, y, list(breaks))
            assert np.array_equal(got, self._ripple_reference(x, y, breaks)), breaks

    def test_irregular_masks_match_per_bit_ripple(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            breaks = rng.integers(0, 2, size=40).tolist()
            x = rng.integers(0, 2, size=(7, 40), dtype=np.int8)
            y = rng.integers(0, 2, size=(7, 40), dtype=np.int8)
            assert np.array_equal(
                segmented_add(x, y, breaks), self._ripple_reference(x, y, breaks)
            )

    @pytest.mark.parametrize("width", range(1, 13))
    def test_matches_scalar_addition(self, width):
        rng = random.Random(width)
        seg = width + 1
        count = 144 // seg
        xs = [rng.randrange(1 << width) for _ in range(count)]
        ys = [rng.randrange(1 << width) for _ in range(count)]
        assert self._add(xs, ys, width) == [a + b for a, b in zip(xs, ys)]


class TestSeparateInverse:
    def test_random_fp7_reassembly(self):
        fmt = parse_format("e3m3")
        bundle = compile_bundle(fmt, fmt, fmt)
        rng = random.Random(3)
        words = [rng.randrange(1 << 7) for _ in range(bundle.n_acts)]
        regs = separate(load_registers(bundle, np.asarray([words]), np.asarray([words])), bundle)
        # rebuild each word from the routed fields
        for k, w in enumerate(words):
            sign = int(regs.act_sign[0, k])
            exp = int(
                sum(int(b) << (2 - t) for t, b in enumerate(regs.act_exp[0, 3 * k : 3 * k + 3]))
            )
            man = int(
                sum(int(b) << (2 - t) for t, b in enumerate(regs.act_man[0, 3 * k : 3 * k + 3]))
            )
            assert (sign << 6) | (exp << 3) | man == w


def _cross_rows_loop(grid_a, grid_w, na, nw):
    """Reference row builder: one (chunk_a, chunk_w) row at a time."""
    chunks_a = [grid_a[i : i + na] for i in range(0, len(grid_a), na)]
    chunks_w = [grid_w[i : i + nw] for i in range(0, len(grid_w), nw)]
    rows_a = np.zeros((len(chunks_a) * len(chunks_w), na), dtype=np.int64)
    rows_w = np.zeros((len(chunks_a) * len(chunks_w), nw), dtype=np.int64)
    mask = np.zeros((len(chunks_a) * len(chunks_w), na * nw), dtype=bool)
    a_of = np.arange(na * nw) % na
    w_of = np.arange(na * nw) // na
    r = 0
    for ca in chunks_a:
        for cw in chunks_w:
            rows_a[r, : len(ca)] = ca
            rows_w[r, : len(cw)] = cw
            mask[r] = (a_of < len(ca)) & (w_of < len(cw))
            r += 1
    return rows_a, rows_w, mask


class TestCrossRows:
    def _check(self, grid_a, grid_w, na, nw):
        grid_a, grid_w = np.asarray(grid_a, dtype=np.int64), np.asarray(grid_w, dtype=np.int64)
        got = _cross_rows(grid_a, grid_w, na, nw)
        want = _cross_rows_loop(grid_a, grid_w, na, nw)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("len_a, len_w, na, nw", [
        (12, 8, 3, 2),      # both whole multiples
        (13, 9, 3, 2),      # both ragged
        (12, 9, 4, 3),      # one ragged
        (1, 1, 3, 2),       # one-element grids
        (1, 7, 1, 1),
        (5, 1, 2, 4),
    ])
    def test_matches_loop(self, len_a, len_w, na, nw):
        rng = random.Random(len_a * 100 + len_w)
        self._check([rng.randrange(256) for _ in range(len_a)],
                    [rng.randrange(256) for _ in range(len_w)], na, nw)

    @pytest.mark.parametrize("fa, fw, exhaustive", [
        ("e4m3", "e2m3", True), ("e4m3", "e2m3", False), ("e5m2", "e3m1", True), ("e3m8", "e6m5", False),
    ])
    def test_sweep_grid_sizes(self, fa, fw, exhaustive):
        fa, fw = parse_format(fa), parse_format(fw)
        bundle = compile_bundle(fa, fw, fa)
        rng = random.Random(3)
        per_side = int(10_000 ** 0.5) + 1
        grid_a = _operand_grids(fa, exhaustive, per_side, rng)
        grid_w = _operand_grids(fw, exhaustive, per_side, rng)
        self._check(grid_a, grid_w, bundle.n_acts, bundle.n_wgts)


class TestPeMultiply:
    def test_exhaustive_fp6_fp5_all_pairs(self):
        r = sweep_pair(FP6, FP5, out_fmt=FP6)
        assert r.cases == 2048 and r.mismatches == 0

    def test_sampled_equivalence_for_wide_formats(self):
        # formats beyond 12 bits still fit the register partition; cover
        # them with at least 1e5 sampled pairs overall
        wide = ["e5m10", "e8m7", "e5m12", "e11m8", "e4m11", "e11m12"]
        partners = ["e5m10", "e2m3", "e3m4"]
        total = 0
        for wa in wide:
            for wb in partners:
                r = sweep_pair(parse_format(wa), parse_format(wb), samples=8_000)
                assert r.mismatches == 0, r.first_failure
                total += r.cases
        assert total >= 100_000

    def test_multiply_by_one_is_identity_up_to_truncation(self):
        one = encode(ExactNumber.from_int(1), FP6)
        for word in range(64):
            a = decode(word, FP6)
            got = pe_multiply(
                make_buf([word], FP6), make_buf([one.word()], FP6),
                compile_bundle(FP6, FP6, FP6),
            )[0]
            assert got.to_fraction() == a.to_fraction()

    def test_elementwise_contract_multi_element(self):
        bundle = compile_bundle(FP6, FP5, FP6)
        rng = random.Random(11)
        for _ in range(50):
            wa = [rng.randrange(64) for _ in range(4)]
            ww = [rng.randrange(32) for _ in range(4)]
            got = pe_multiply(make_buf(wa, FP6), make_buf(ww, FP5), bundle)
            for k in range(4):
                want = encode(mul_ref(decode(wa[k], FP6), decode(ww[k], FP5)), FP6)
                assert got[k].word() == want.word()

    def test_wide_times_narrow_into_fp20(self):
        # e5m10 x e2m3 products feed 20-bit e5m14 accumulator inputs: the
        # 15-bit significand product fits the mantissa exactly, so values
        # only change when the exponent range clamps
        fp20 = parse_format("e5m14")
        bundle = compile_bundle(FP16, FP6, fp20)
        rng = random.Random(5)
        for _ in range(300):
            wa, ww = rng.randrange(1 << 16), rng.randrange(1 << 6)
            got = pe_multiply(make_buf([wa], FP16), make_buf([ww], FP6), bundle)[0]
            want = mul_ref(decode(wa, FP16), decode(ww, FP6))
            assert got.word() == encode(want, fp20).word()
            if not got.is_zero and got.exp_field < fp20.exp_max:
                assert got.to_fraction() == want.to_fraction()

    def test_zero_operand_bypass(self):
        bundle = compile_bundle(FP6, FP6, FP6)
        got = pe_multiply(make_buf([0b011011, 0], FP6), make_buf([0, 0b100101], FP6), bundle)
        assert all(v.is_zero for v in got)

    def test_length_mismatch(self):
        bundle = compile_bundle(FP6, FP6, FP6)
        with pytest.raises(ShapeError):
            pe_multiply(make_buf([1, 2], FP6), make_buf([1], FP6), bundle)

    def test_int_mode(self):
        i4 = parse_format("int4")
        i8 = parse_format("int8")
        bundle = compile_bundle(i4, i4, i8)
        for wa in range(16):
            for ww in range(16):
                got = pe_multiply(make_buf([wa], i4), make_buf([ww], i4), bundle)[0]
                want = decode(wa, i4).to_fraction() * decode(ww, i4).to_fraction()
                assert got.to_fraction() == want

    def test_poisoned_inactive_bits_do_not_leak(self):
        bundle = compile_bundle(FP6, FP5, FP6)
        words_a = np.asarray([[9, 33, 61, 17]], dtype=np.int64)
        words_w = np.asarray([[3, 30, 8, 21]], dtype=np.int64)
        clean = run_cross_products(bundle, words_a, words_w)
        regs = load_registers(bundle, words_a, words_w)
        # poison every register bit the separator leaves unrouted
        for name, reg in (("act", regs.act_reg), ("wgt", regs.wgt_reg)):
            for i, r in enumerate(bundle.sep_routes[name]):
                if r is None:
                    reg[..., i] = 1
        regs = separate(regs, bundle)
        bits = gen_primitives(regs, bundle, 0)
        outs = run_reduction_tree(bits, bundle)
        for o in range(bundle.ops_per_load):
            a, w = o % 4, o // 4
            raw_clean = clean.sig[0, o]
            # recompute the poisoned product at the significand level
            am = int(
                sum(int(b) << (2 - t) for t, b in enumerate(regs.act_man[0, 3 * a : 3 * a + 3]))
            )
            wm = int(
                sum(int(b) << (1 - t) for t, b in enumerate(regs.wgt_man[0, 2 * w : 2 * w + 2]))
            )
            poisoned = apply_implicit_one(int(np.asarray(outs[o])[0]), am, wm, 3, 2)
            assert poisoned == raw_clean

    def test_serialization_invariance(self):
        # splitting operations across passes never changes the values
        small = PEConfig(prim_reg_bits=36)
        b_small = compile_bundle(FP6, FP6, FP6, small)
        b_full = compile_bundle(FP6, FP6, FP6)
        assert b_small.prim.serialization_factor == 4
        rng = random.Random(21)
        wa = np.asarray([[rng.randrange(64) for _ in range(4)]], dtype=np.int64)
        ww = np.asarray([[rng.randrange(64) for _ in range(4)]], dtype=np.int64)
        out_small = products_to_words(run_cross_products(b_small, wa, ww), b_small, FP6)
        out_full = products_to_words(run_cross_products(b_full, wa, ww), b_full, FP6)
        assert np.array_equal(out_small, out_full)

    def test_trace_contains_all_stages(self):
        bundle = compile_bundle(FP6, FP5, FP6)
        text = trace_multiply(bundle, 0b010011, 0b01001)
        for key in ("act_reg", "prim_reg", "tree_out", "significand", "exp_sum", "out_word"):
            assert key in text


class TestAlignment:
    def test_equal_exponents(self):
        ref, deltas = normalize_exponents([5, 5, 5])
        assert ref == 5 and deltas == [0, 0, 0]

    def test_two_exponents(self):
        ref, deltas = normalize_exponents([3, 1])
        assert ref == 3 and deltas == [0, 2]

    def test_max_rule_random_group(self):
        rng = random.Random(2)
        es = [rng.randrange(32) for _ in range(16)]
        ref, deltas = normalize_exponents(es)
        assert ref == max(es)
        assert all(d >= 0 for d in deltas)
        assert 0 in deltas

    def test_delta_zero_is_identity(self):
        shifted, events = concat_shift([0b1101], [0], 8, widths=[4])
        assert shifted == [0b1101 << 4] and events == 0

    def test_pattern_example(self):
        # 1.101 shifted by 2 in an 8-bit lane keeps all bits: 0.0110100
        shifted, events = concat_shift([0b1101], [2], 8, widths=[4])
        assert events == 0
        assert shifted == [0b00110100]

    def test_flush_and_loss_events(self):
        shifted, events = concat_shift([0b1101], [9], 8, widths=[4])
        assert shifted == [0] and events == 1
        shifted, events = concat_shift([0b1101], [5], 8, widths=[4])
        assert events == 1  # low set bit dropped

    def test_exhaustive_3bit_alignment_oracle(self):
        lane = 8
        for m in range(8):
            for delta in range(12):
                shifted, events = concat_shift([m], [delta], lane, widths=[3])
                exact = Fraction(m, 1 << delta)
                got = Fraction(shifted[0], 1 << (lane - 3))
                if events == 0:
                    assert got == exact
                else:
                    assert got <= exact and exact - got < 1


class TestAccumulate:
    def test_cancellation(self):
        out, sat = accumulate([5, 5], [0, 1], -3, FP6)
        assert out.is_zero and not sat

    def test_saturation_flag(self):
        out, sat = accumulate([1 << 12], [0], 4, FP6)
        assert sat and out.word() == 0b0_11_111

    def test_dot4_exact_when_deltas_zero(self):
        # equal exponent fields: no alignment loss, single final truncation
        rng = random.Random(6)
        bundle = compile_bundle(FP6, FP6, FP6)
        for _ in range(100):
            wa = [(rng.randrange(2) << 5) | (0b10 << 3) | rng.randrange(8) for _ in range(4)]
            ww = [(rng.randrange(2) << 5) | (0b10 << 3) | rng.randrange(8) for _ in range(4)]
            a_buf, w_buf = make_buf(wa, FP6), make_buf(ww, FP6)
            out, stats = pe_mac_tile(a_buf, w_buf, 1, 1, 4, bundle, FP6)
            assert stats.precision_loss_events == 0
            exact = ExactNumber.zero()
            for x, y in zip(wa, ww):
                exact = exact.add(mul_ref(decode(x, FP6), decode(y, FP6)))
            assert out.words()[0] == encode(exact, FP6).word()


class TestMacTile:
    def _ulp(self, v, fmt):
        if v.is_zero:
            return Fraction(0)
        return Fraction(2) ** (v.exp_field - fmt.bias_value - fmt.man_bits)

    def test_1x1x1_equals_pe_multiply(self):
        bundle = compile_bundle(FP6, FP5, FP6)
        for wa, ww in [(0b010011, 0b01001), (0b111111, 0b11111), (0, 0b00101)]:
            tile, _ = pe_mac_tile(make_buf([wa], FP6), make_buf([ww], FP5), 1, 1, 1, bundle)
            single = pe_multiply(make_buf([wa], FP6), make_buf([ww], FP5), bundle)
            assert tile.words() == [single[0].word()]

    def test_4x4x4_matches_matmul_oracle(self):
        bundle = compile_bundle(FP6, FP6, FP6)
        rng = random.Random(13)
        # same exponent everywhere keeps alignment exact
        words = lambda n: [(rng.randrange(2) << 5) | (0b01 << 3) | rng.randrange(8) for _ in range(n)]
        aw, ww = words(16), words(16)
        tile, stats = pe_mac_tile(make_buf(aw, FP6), make_buf(ww, FP6), 4, 4, 4, bundle)
        assert stats.precision_loss_events == 0
        a = [[decode(aw[i * 4 + k], FP6).to_fraction() for k in range(4)] for i in range(4)]
        w = [[decode(ww[k * 4 + j], FP6).to_fraction() for j in range(4)] for k in range(4)]
        for i in range(4):
            for j in range(4):
                exact = sum((a[i][k] * w[k][j] for k in range(4)), Fraction(0))
                want = encode(_to_exact(exact), FP6)
                got = decode(tile.words()[i * 4 + j], FP6)
                assert got.to_fraction() == want.to_fraction()

    def test_random_tile_within_tolerance(self):
        bundle = compile_bundle(FP6, FP6, FP8)
        rng = random.Random(17)
        aw = [rng.randrange(64) for _ in range(8)]
        ww = [rng.randrange(64) for _ in range(8)]
        tile, stats = pe_mac_tile(make_buf(aw, FP6), make_buf(ww, FP6), 2, 2, 4, bundle, FP8)
        for i in range(2):
            for j in range(2):
                exact = sum(
                    (
                        decode(aw[i * 4 + k], FP6).to_fraction()
                        * decode(ww[k * 2 + j], FP6).to_fraction()
                        for k in range(4)
                    ),
                    Fraction(0),
                )
                got = decode(tile.words()[i * 2 + j], FP8)
                tol = (1 + stats.precision_loss_events) * self._ulp(got, FP8)
                assert abs(got.to_fraction() - exact) <= max(tol, Fraction(1, 1 << 10))

    def test_mx_block_matches_reference(self):
        bundle = compile_bundle(FP6, FP6, FP8)
        sf = parse_format("e3m0")
        rng = random.Random(19)
        # equal exponents keep the element dot exact
        words = lambda: [(rng.randrange(2) << 5) | (0b10 << 3) | rng.randrange(8) for _ in range(4)]
        aw, ww = words(), words()
        sa = decode(0b0_100, sf)  # 2.0
        sw = decode(0b0_011, sf)  # 1.0
        tile, stats = pe_mac_tile(
            make_buf(aw, FP6), make_buf(ww, FP6), 1, 1, 4, bundle, FP8, mx_scales=(sa, sw)
        )
        assert stats.precision_loss_events == 0
        a_blk = MxBlock(sa, tuple(decode(w, FP6) for w in aw), 4)
        w_blk = MxBlock(sw, tuple(decode(w, FP6) for w in ww), 4)
        want = encode(mx_dot_ref(a_blk, w_blk), FP8)
        assert tile.words()[0] == want.word()

    def test_shape_validation(self):
        bundle = compile_bundle(FP6, FP6, FP6)
        with pytest.raises(ShapeError):
            pe_mac_tile(make_buf([0] * 3, FP6), make_buf([0] * 4, FP6), 2, 2, 2, bundle)

    def test_accumulation_order_invariance_in_exactness_domain(self):
        # permuting the K axis never changes a loss-free dot product
        bundle = compile_bundle(FP6, FP6, FP8)
        rng = random.Random(23)
        for _ in range(20):
            k = 12
            e = rng.randrange(4)
            aw = [(rng.randrange(2) << 5) | (e << 3) | rng.randrange(8) for _ in range(k)]
            ww = [(rng.randrange(2) << 5) | (e << 3) | rng.randrange(8) for _ in range(k)]
            base, stats = pe_mac_tile(make_buf(aw, FP6), make_buf(ww, FP6), 1, 1, k, bundle, FP8)
            assert stats.precision_loss_events == 0
            order = list(range(k))
            rng.shuffle(order)
            aw2 = [aw[i] for i in order]
            ww2 = [ww[i] for i in order]
            perm, _ = pe_mac_tile(make_buf(aw2, FP6), make_buf(ww2, FP6), 1, 1, k, bundle, FP8)
            assert perm.words() == base.words()


def _mac_tile_per_load(a_tile, w_tile, m, n, k, bundle, out_fmt, mx_scales):
    """Reference pe_mac_tile: one run_cross_products call per register
    load, in (kk, m0, n0) order, ragged blocks loaded short."""
    aw, ww = a_tile.words(), w_tile.words()
    stats = TileStats()
    per_out = {(i, j): [] for i in range(m) for j in range(n)}
    for kk in range(k):
        for m0 in range(0, m, bundle.n_acts):
            ma = min(bundle.n_acts, m - m0)
            col = [aw[(m0 + mi) * k + kk] for mi in range(ma)]
            for n0 in range(0, n, bundle.n_wgts):
                nw = min(bundle.n_wgts, n - n0)
                row = [ww[kk * n + (n0 + nj)] for nj in range(nw)]
                raw = run_cross_products(
                    bundle, np.asarray([col], dtype=np.int64), np.asarray([row], dtype=np.int64)
                )
                stats.register_loads += 1
                stats.tree_passes += bundle.prim.serialization_factor
                for mi in range(ma):
                    for nj in range(nw):
                        o = raw.op_index(mi, nj)
                        if bool(raw.zero[0, o]):
                            continue
                        per_out[(m0 + mi, n0 + nj)].append(
                            (int(raw.sign[0, o]), int(raw.sig[0, o]), int(raw.exp_sum[0, o]))
                        )
    scale = ExactNumber(0, 1, 0)
    if mx_scales is not None:
        scale = mx_scales[0].to_exact().mul(mx_scales[1].to_exact())
    group = bundle.cst.lanes_per_pass
    words = []
    for i in range(m):
        for j in range(n):
            prods = per_out[(i, j)]
            acc = ExactNumber.zero()
            for g0 in range(0, len(prods), group):
                acc = acc.add(_group_reduce(prods[g0 : g0 + group], bundle, stats))
            acc = acc.mul(scale)
            out = encode(acc, out_fmt)
            if not acc.is_zero and out_fmt.kind is Kind.FLOAT:
                if (
                    out.exp_field == out_fmt.exp_max
                    and out.man_field == out_fmt.man_max
                    and abs(acc.to_fraction()) > abs(out.to_fraction())
                ):
                    stats.saturations += 1
            words.append(out.word())
    return words, stats


class TestMacTileBatched:
    """The one-batch tile equals the per-load loop word for word."""

    PAIRS = tuple(DEFAULT_SWEEP_PAIRS) + ("int4:int4", "int8:int3")

    @pytest.mark.parametrize("pair", PAIRS)
    def test_matches_per_load_loop(self, pair):
        fa, fw = (parse_format(t) for t in pair.split(":"))
        is_float = fa.kind is Kind.FLOAT
        out_fmt = parse_format("e5m10" if is_float else "int16")
        bundle = compile_bundle(fa, fw, out_fmt)
        rng = random.Random(pair)
        sf = parse_format("e8m0")
        # m, n one past a multiple of the capacity leave a ragged block
        shapes = [(bundle.n_acts + 1, bundle.n_wgts + 1, 5), (1, 3, 12), (2 * bundle.n_acts + 3, 2, 1)]
        for m, n, k in shapes:
            for with_mx in (False, True) if is_float else (False,):
                aw = [rng.randrange(1 << fa.total_bits) for _ in range(m * k)]
                ww = [rng.randrange(1 << fw.total_bits) for _ in range(k * n)]
                mx = None
                if with_mx:
                    mx = tuple(decode(sf.bias_value + rng.randrange(-4, 5), sf) for _ in range(2))
                a_buf, w_buf = make_buf(aw, fa), make_buf(ww, fw)
                tile, stats = pe_mac_tile(a_buf, w_buf, m, n, k, bundle, out_fmt, mx)
                want, want_stats = _mac_tile_per_load(a_buf, w_buf, m, n, k, bundle, out_fmt, mx)
                assert tile.words() == want, (m, n, k, with_mx)
                assert stats == want_stats, (m, n, k, with_mx)

    def test_empty_dimensions(self):
        bundle = compile_bundle(FP6, FP6, FP6)
        tile, stats = pe_mac_tile(make_buf([], FP6), make_buf([], FP6), 2, 3, 0, bundle)
        assert tile.words() == [0] * 6 and stats == TileStats()
        tile, _ = pe_mac_tile(make_buf([], FP6), make_buf([1, 2], FP6), 0, 1, 2, bundle)
        assert tile.words() == []


def _to_exact(frac: Fraction) -> ExactNumber:
    sign = 1 if frac < 0 else 0
    num, den = abs(frac.numerator), frac.denominator
    assert den & (den - 1) == 0, "test values must be dyadic"
    return ExactNumber(sign, num, -(den.bit_length() - 1))
