"""Control compiler: routes, layouts, tree modes, adder breaks, bundles."""

import itertools
import random

import pytest

from anyprec.codec import parse_format
from anyprec.control import (
    ModeKind,
    PEConfig,
    Side,
    bundle_to_text,
    compile_bundle,
    compile_exp_adder,
    compile_primgen,
    compile_reduction_tree,
    compile_separator,
    pe_capacity,
)
from anyprec.errors import CapacityError, ControlError

FP6 = parse_format("e2m3")
FP5 = parse_format("e2m2")
CFG = PEConfig()


def segment_layout(p, q, n_ops):
    """Leaf labels for n_ops back-to-back p x q multiplications."""
    oids = [o for o in range(n_ops) for _ in range(p * q)]
    sids = [j for _ in range(n_ops) for j in range(q) for _ in range(p)]
    return oids, sids


def leaves_for(pairs, p, q):
    out = []
    for a, w in pairs:
        for j in range(q):
            for i in range(p):
                out.append(((a >> i) & 1) & ((w >> j) & 1))
    return out


class TestSeparator:
    def test_fp6_hand_trace(self):
        routes = compile_separator(FP6, FP6, CFG)["act"]
        signs = [i for i, r in enumerate(routes) if r and r[0] == "sign"]
        exps = [i for i, r in enumerate(routes) if r and r[0] == "exp"]
        mans = [i for i, r in enumerate(routes) if r and r[0] == "man"]
        assert signs == [0, 6, 12, 18]
        assert exps == [1, 2, 7, 8, 13, 14, 19, 20]
        assert mans == [3, 4, 5, 9, 10, 11, 15, 16, 17, 21, 22, 23]
        # destination indices run consecutively in scan order
        assert [routes[i][1] for i in exps] == list(range(8))

    def test_single_wide_element(self):
        fmt = parse_format("e11m12")  # occupies the whole register
        routes = compile_separator(fmt, fmt, PEConfig(man_reg_bits=12, exp_reg_bits=11))["act"]
        kinds = [r[0] for r in routes]
        assert kinds == ["sign"] + ["exp"] * 11 + ["man"] * 12

    def test_fp5_weight_groups(self):
        routes = compile_separator(FP6, FP5, CFG)["wgt"]
        # per element: sign, two exponent bits, two mantissa bits
        for e in range(4):
            base = e * 5
            assert routes[base][0] == "sign"
            assert [routes[base + 1][0], routes[base + 2][0]] == ["exp", "exp"]
            assert [routes[base + 3][0], routes[base + 4][0]] == ["man", "man"]
        # 4 trailing register bits unrouted
        assert routes[20:] == [None] * 4

    def test_capacity_clamps_element_count(self):
        # e1m6: 3 elements fit the register but only 2 mantissas fit
        fmt = parse_format("e1m6")
        assert pe_capacity(fmt, fmt, CFG)[:2] == (2, 2)

    def test_capacity_error_when_one_element_cannot_fit(self):
        with pytest.raises(CapacityError):
            pe_capacity(parse_format("e14m9"), FP6, CFG)


class TestPrimGen:
    def test_walkthrough_order(self):
        # 3x2 mantissas: first operation emits P(0,0) P(1,0) P(2,0) P(0,1) P(1,1) P(2,1)
        layout = compile_primgen(FP6, FP5, CFG)
        assert layout.num_prims == 6
        got = []
        for slot in range(6):
            am, wm = layout.routes[slot]
            i = (3 - 1) - (am % 3)  # invert the MSB-first register position
            j = (2 - 1) - (wm % 2)
            got.append((i, j))
        assert got == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        assert layout.sids[:6] == (0, 0, 0, 1, 1, 1)

    def test_one_bit_mantissas(self):
        fmt = parse_format("e1m1")
        layout = compile_primgen(fmt, fmt, CFG)
        assert layout.num_prims == 1
        # register capacity binds before the primitive register would (144)
        assert layout.ops_per_pass == 64
        assert CFG.prim_reg_bits // layout.num_prims == 144

    def test_fp6_fills_prim_register_exactly(self):
        layout = compile_primgen(FP6, FP6, CFG)
        assert layout.n_acts == layout.n_wgts == 4
        assert layout.ops_per_pass == 16 and layout.num_prims == 9
        assert layout.ops_per_pass * layout.num_prims == CFG.prim_reg_bits
        assert layout.serialization_factor == 1

    def test_serialization_with_small_prim_register(self):
        cfg = PEConfig(prim_reg_bits=36)
        layout = compile_primgen(FP6, FP6, cfg)
        assert layout.ops_per_pass == 4
        assert layout.serialization_factor == 4


class TestExpAdder:
    def test_example_widths(self):
        breaks, w = compile_exp_adder(parse_format("e3m2"), parse_format("e2m3"), CFG)
        assert w == 3
        # one guard bit per segment: breaks every 4th position
        assert all(breaks[i] == (1 if (i + 1) % 4 == 0 else 0) for i in range(len(breaks)))

    def test_single_segment(self):
        cfg = PEConfig(exp_adder_bits=8)
        breaks, w = compile_exp_adder(parse_format("e7m0"), parse_format("e7m0"), cfg)
        assert w == 7
        assert breaks == [0] * 7 + [1]

    @pytest.mark.parametrize("wa,ww", [(a, b) for a in range(1, 8) for b in (1, a)])
    def test_period_is_add_width_plus_one(self, wa, ww):
        fa = parse_format(f"e{wa}m0")
        fw = parse_format(f"e{ww}m0")
        breaks, w = compile_exp_adder(fa, fw, CFG)
        assert w == max(wa, ww)
        period = w + 1
        for i in range(len(breaks) - period):
            assert breaks[i] == breaks[i + period]


class TestReductionTree:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 2), (4, 4), (6, 2), (5, 3)])
    def test_exhaustive_products(self, p, q):
        n_ops = max(1, 24 // (p * q))
        oids, sids = segment_layout(p, q, n_ops)
        _, plan = compile_reduction_tree(oids, sids)
        rng = random.Random(42)
        for _ in range(100):
            pairs = [(rng.randrange(1 << p), rng.randrange(1 << q)) for _ in range(n_ops)]
            outs = plan.evaluate(leaves_for(pairs, p, q))
            assert outs == [a * w for a, w in pairs]

    def test_single_operation_all_patterns(self):
        p, q = 3, 3
        oids, sids = segment_layout(p, q, 1)
        _, plan = compile_reduction_tree(oids, sids)
        for a in range(8):
            for w in range(8):
                (out,) = plan.evaluate(leaves_for([(a, w)], p, q))
                assert out == a * w

    def test_three_input_modes_only_on_linked_nodes(self):
        bundle = compile_bundle(FP6, FP5, FP6)
        for row in bundle.tree_modes:
            for n, mode in enumerate(row):
                if mode.kind in (ModeKind.C3, ModeKind.A3, ModeKind.CONCAT_ADD):
                    assert mode.side is Side.RIGHT
                    assert n % 2 == 1, "link modes require a right-hand neighbor link"

    def test_walkthrough_uses_links(self):
        bundle = compile_bundle(FP6, FP5, FP6)
        kinds = {m.kind for row in bundle.tree_modes for m in row}
        assert ModeKind.CONCAT_ADD in kinds

    def test_c3_arises_for_wide_segments(self):
        # 6-wide segments span three level-1 nodes: the middle one pulls a
        # same-segment continuation over its link
        oids, sids = segment_layout(6, 2, 2)
        modes, plan = compile_reduction_tree(oids, sids)
        kinds = {m.kind for row in modes for m in row}
        assert ModeKind.C3 in kinds
        pairs = [(0b101101, 0b10), (0b111111, 0b11)]
        assert plan.evaluate(leaves_for(pairs, 6, 2)) == [a * w for a, w in pairs]

    def test_malformed_oids_rejected(self):
        with pytest.raises(ControlError):
            compile_reduction_tree([0, 1, 0, 1], [0, 0, 0, 0])
        with pytest.raises(ControlError):
            compile_reduction_tree([0, 0, 1, 1], [1, 0, 1, 0])  # sids decrease

    def test_idle_leaves_between_ops_rejected_if_split(self):
        # an operation interrupted by an idle leaf is non-contiguous
        with pytest.raises(ControlError):
            compile_reduction_tree([0, None, 0], [0, None, 1])


class TestBundle:
    def test_deterministic(self):
        b1 = compile_bundle(FP6, FP5, FP6)
        b2 = compile_bundle(FP6, FP5, FP6)
        assert bundle_to_text(b1) == bundle_to_text(b2)
        assert b1.tree_plan == b2.tree_plan

    def test_golden_file(self, tmp_path):
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "bundle_e2m3_e2m2.txt"
        text = bundle_to_text(compile_bundle(FP6, FP5, FP6))
        assert text == golden.read_text()

    def test_mixed_kind_pairs_rejected(self):
        with pytest.raises(CapacityError):
            compile_bundle(parse_format("e5m10"), parse_format("int4"), FP6)

    def test_total_over_small_float_domain(self):
        fmts = [
            parse_format(f"e{e}m{t - 1 - e}")
            for t in range(3, 13)
            for e in range(1, t)
        ]
        for fa, fw in itertools.product(fmts[::7], fmts[::5]):
            compile_bundle(fa, fw, fa)

    def test_total_over_int_domain(self):
        fmts = [parse_format(f"int{n}") for n in range(2, 13)]
        for fa, fw in itertools.product(fmts[::3], fmts[::2]):
            b = compile_bundle(fa, fw, fa)
            assert b.int_mode
