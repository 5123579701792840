"""Cycle/traffic model: throughput, tiling, roofline, baselines, ablation."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anyprec.archsim import (
    BIT_FUSION,
    DATAFLOWS,
    OS,
    TENSOR_CORE,
    WS,
    AcceleratorConfig,
    GemmWorkload,
    best_dataflow,
    builtin_machines,
    load_machine,
    packing_ablation,
    pe_throughput,
    plan_tiles,
    simulate,
    simulate_baseline,
    upcast_bit_fusion,
    upcast_tensor_core,
)
from anyprec.bitpack import PackedBuffer
from anyprec.codec import Kind, parse_format
from anyprec.control import PEConfig, compile_bundle
from anyprec.datapath import pe_mac_tile
from anyprec.errors import ConfigError
from anyprec.validate import float_formats

FP4 = parse_format("e2m1")
FP6 = parse_format("e2m3")
FP8 = parse_format("e4m3")
FP16 = parse_format("e5m10")

PRESET_MACHINES = [load_machine(name) for name in builtin_machines()]
SWEEP_DIMS = (1, 7, 64, 512, 2048, 4096)
FLOATS_12 = float_formats(12)


def gemm(m, n, k, fa=FP6, fw=FP6, fo=None, label="g"):
    return GemmWorkload(m, n, k, fa, fw, fo or fa, label)


class TestThroughput:
    def test_reference_points(self):
        assert pe_throughput(FP6, FP6) == 16
        assert pe_throughput(FP8, FP8) == 9
        assert pe_throughput(FP16, FP16) == 1

    def test_full_width_operands(self):
        wide = parse_format("e11m12")  # 24 bits
        assert pe_throughput(wide, wide) == 1

    def test_prim_register_caps(self):
        # e2m5 x e2m5: 3 elements fit the 24-bit register, but only 2 five-bit
        # mantissas fit the 12-bit mantissa register; the 2x2 operations of
        # 25 prims each are within the 144 // 25 = 5 the primitive register holds
        f = parse_format("e2m5")
        assert pe_throughput(f, f) == 4
        # the primitive register binds when it holds fewer operations
        assert pe_throughput(f, f, PEConfig(prim_reg_bits=75)) == 3

    def test_monotone_in_precision(self):
        # decreasing either operand precision never lowers the rate
        fmts = [parse_format(f"e2m{m}") for m in range(1, 9)]
        rates = [pe_throughput(f, FP6) for f in fmts]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


ONE_PE = AcceleratorConfig("one_pe", 1, 1, 1)
INTS_12 = [parse_format(f"int{bits}") for bits in range(2, 13)]


class TestCapacityModel:
    """The cycle model credits a PE with what the functional datapath does
    (an analytic model checked against counted actions, as in Timeloop)."""

    def test_rate_is_the_compiled_datapath_rate(self):
        # every float pair of <= 12 bits and every int pair int2..int12
        pairs = itertools.chain(itertools.product(FLOATS_12, FLOATS_12),
                                itertools.product(INTS_12, INTS_12))
        for fa, fw in pairs:
            bundle = compile_bundle(fa, fw, fa)
            rate = simulate(gemm(1, 1, 1, fa, fw), ONE_PE).breakdowns["plan"]["throughput"]
            assert rate == pe_throughput(fa, fw)
            assert rate == bundle.ops_per_load / bundle.prim.serialization_factor, (fa, fw)

    @pytest.mark.parametrize("pair, cfg", [
        ("e2m3:e2m3", PEConfig()),
        ("e4m3:e2m1", PEConfig()),
        ("e5m10:e2m3", PEConfig()),
        ("e1m5:e5m5", PEConfig()),
        ("e5m2:e5m2", PEConfig()),
        ("int4:int4", PEConfig()),
        ("int8:int3", PEConfig()),
        # 2x2 operations of 25 prims, 3 per pass: 2 passes per load
        ("e2m5:e2m5", PEConfig(prim_reg_bits=75)),
        # 4x4 operations of 9 prims, 4 per pass: 4 passes per load
        ("e2m3:e2m3", PEConfig(prim_reg_bits=36)),
    ])
    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    def test_tree_passes_equal_compute_cycles(self, pair, cfg, dataflow):
        fa, fw = (parse_format(t) for t in pair.split(":"))
        out = parse_format("e5m10" if fa.kind is Kind.FLOAT else "int16")
        bundle = compile_bundle(fa, fw, out, cfg)
        na, nw = bundle.n_acts, bundle.n_wgts
        rng = random.Random(pair)
        # full, ragged and single-element m/n blocks
        for m, n, k in ((1, 1, 1), (na, nw, 2), (na + 1, nw + 1, 3), (2 * na + 1, 1, 5), (1, 2 * nw, 4)):
            a = PackedBuffer.from_words([rng.randrange(1 << fa.total_bits) for _ in range(m * k)], fa)
            w = PackedBuffer.from_words([rng.randrange(1 << fw.total_bits) for _ in range(k * n)], fw)
            _, stats = pe_mac_tile(a, w, m, n, k, bundle, out)
            rep = simulate(gemm(m, n, k, fa, fw, out), ONE_PE, dataflow, cfg)
            compute = rep.breakdowns["cycles"]["compute"]
            assert stats.tree_passes == compute, (m, n, k)
            assert stats.register_loads * bundle.prim.serialization_factor == compute


class TestMachines:
    def test_builtin_presets(self):
        names = builtin_machines()
        assert names == ["cloud_a", "cloud_b", "mobile_a", "mobile_b"]
        ma = load_machine("mobile_a")
        assert (ma.num_pes, ma.array_x, ma.array_y) == (1024, 32, 32)
        assert ma.offchip_gbps == 16 and ma.wgt_glb_bytes == 2 * 2**20
        ca = load_machine("cloud_a")
        assert (ca.noc_w_gbps, ca.noc_a_gbps) == (128, 64)
        cb = load_machine("cloud_b")
        assert cb.num_pes == 16384 and cb.array_x == cb.array_y == 128

    def test_pe_grid_must_match(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig("bad", 100, 8, 8)

    def test_reconfiguration_cost_under_100_cycles(self):
        for name in builtin_machines():
            acc = load_machine(name)
            assert 0 < acc.reconfig_cycles < 100
        r = simulate(gemm(64, 64, 64), load_machine("mobile_a"), WS)
        assert r.breakdowns["cycles"]["reconfig"] < 100


class TestPlan:
    def test_tiny_gemm_single_tile(self):
        plan = plan_tiles(gemm(8, 8, 8), load_machine("mobile_a"), WS)
        assert (plan.n_mt, plan.n_nt, plan.n_kt) == (1, 1, 1)

    def test_bert_qkv_fits_capacity(self):
        acc = load_machine("mobile_a")
        plan = plan_tiles(gemm(2048, 2304, 768), acc, WS)
        assert plan.tile_k * plan.tile_n * 6 <= acc.wgt_glb_bytes * 8
        assert plan.tile_m * plan.tile_k * 6 + plan.tile_m * plan.tile_n * 6 <= acc.act_out_glb_bytes * 8

    def test_dataflows_change_traffic(self):
        acc = load_machine("mobile_a")
        g = gemm(2048, 11008, 4096, label="ffn")
        ws = simulate(g, acc, WS)
        os_ = simulate(g, acc, OS)
        assert ws.dram_bits_read != os_.dram_bits_read

    def test_impossible_tile_raises(self):
        tiny = AcceleratorConfig("tiny", 1, 1, 1, wgt_glb_bytes=1, act_out_glb_bytes=1)
        with pytest.raises(ConfigError):
            plan_tiles(gemm(64, 64, 64), tiny, WS)


class TestSimulate:
    def test_compute_bound_square_matches_closed_form(self):
        acc = AcceleratorConfig("tiny64", 64, 8, 8)
        g = gemm(2048, 2048, 2048)
        r = simulate(g, acc, OS)
        ideal = g.macs / (64 * 16)
        assert r.breakdowns["cycles"]["compute"] == max(r.breakdowns["cycles"].values())
        assert abs(r.cycles - ideal) / ideal < 0.05

    def test_unit_gemm(self):
        r = simulate(gemm(1, 1, 1), load_machine("mobile_a"), WS)
        assert r.cycles >= 1
        assert r.seconds == r.cycles / 1e9

    def test_determinism(self):
        acc = load_machine("mobile_a")
        g = gemm(512, 512, 512)
        a = simulate(g, acc, WS)
        b = simulate(g, acc, WS)
        assert a == b

    def test_conservation_reads_cover_unique_bits(self):
        acc = load_machine("mobile_a")
        for df in (WS, OS):
            g = gemm(1024, 1024, 1024)
            r = simulate(g, acc, df)
            unique = g.m * g.k * 6 + g.k * g.n * 6
            assert r.dram_bits_read >= unique
        # equality when one tile covers everything
        g = gemm(64, 64, 64)
        r = simulate(g, acc, OS)
        assert r.dram_bits_read == 64 * 64 * 6 * 2

    @given(
        acc=st.sampled_from(PRESET_MACHINES),
        m=st.sampled_from(SWEEP_DIMS),
        n=st.sampled_from(SWEEP_DIMS),
        k=st.sampled_from(SWEEP_DIMS),
        fa=st.sampled_from(FLOATS_12),
        fw=st.sampled_from(FLOATS_12),
        dataflow=st.sampled_from(DATAFLOWS),
        padded=st.booleans(),
    )
    # the original case: a 256-PE machine at 1 and 512 GB/s off-chip
    @example(acc=AcceleratorConfig("m", 256, 16, 16, offchip_gbps=1.0), m=512, n=768, k=640,
             fa=FP6, fw=FP6, dataflow=WS, padded=False)
    @example(acc=AcceleratorConfig("m", 256, 16, 16, offchip_gbps=512.0), m=512, n=768, k=640,
             fa=FP6, fw=FP6, dataflow=WS, padded=False)
    # packed was charged ceil(6/5) = 2 cycles per step for a 3x2 load that
    # the datapath runs as 2x2 in one pass: 78 packed against 71 padded cycles
    @example(acc=load_machine("mobile_a"), m=1, n=1, k=7, fa=parse_format("e1m5"),
             fw=parse_format("e5m5"), dataflow=OS, padded=False)
    @settings(max_examples=300, deadline=None)
    def test_bandwidth_monotonicity(self, acc, m, n, k, fa, fw, dataflow, padded):
        """Metamorphic properties: more bandwidth, buffer or array never
        costs cycles or DRAM bits; the best dataflow is never worse than
        either; latency covers every resource term; MACs ignore formats;
        packing never costs cycles, DRAM, NoC or SRAM bits."""
        g = gemm(m, n, k, fa, fw)
        packed, unpacked = packing_ablation(g, acc, dataflow)
        for bits in (
            lambda r: r.cycles,
            lambda r: r.dram_bits_read + r.dram_bits_written,
            lambda r: r.noc_bits,
            lambda r: r.sram_read_bits + r.sram_write_bits,
        ):
            assert bits(packed) <= bits(unpacked)
        base = simulate(g, acc, dataflow, padded=padded)
        for more in (
            replace(acc, offchip_gbps=2 * acc.offchip_gbps),
            replace(acc, wgt_glb_bytes=2 * acc.wgt_glb_bytes,
                    act_out_glb_bytes=2 * acc.act_out_glb_bytes),
            replace(acc, array_y=2 * acc.array_y, num_pes=2 * acc.num_pes),
        ):
            r = simulate(g, more, dataflow, padded=padded)
            assert r.cycles <= base.cycles
            assert r.dram_bits_read + r.dram_bits_written <= (
                base.dram_bits_read + base.dram_bits_written
            )
        assert best_dataflow(g, acc).cycles <= min(simulate(g, acc, df).cycles for df in DATAFLOWS)
        terms = base.breakdowns["cycles"]
        assert all(base.cycles >= terms[t] + acc.reconfig_cycles
                   for t in ("compute", "dram", "noc_w", "noc_a"))
        assert base.macs == simulate(gemm(m, n, k, FP16, FP16), acc, dataflow, padded=padded).macs

    def test_buffer_monotonicity(self):
        g = gemm(2048, 11008, 4096)
        small = load_machine("mobile_a")
        big = AcceleratorConfig(
            "mobile_a+", 1024, 32, 32,
            wgt_glb_bytes=8 * 2**20, act_out_glb_bytes=4 * 2**20,
        )
        assert simulate(g, big, WS).cycles <= simulate(g, small, WS).cycles

    def test_precision_monotonicity_compute(self):
        acc = AcceleratorConfig("tiny64", 64, 8, 8, offchip_gbps=10000, noc_w_gbps=10000, noc_a_gbps=10000)
        cycles = [
            simulate(gemm(512, 512, 512, f, f), acc, OS).cycles
            for f in (FP16, FP8, FP6, FP4)
        ]
        assert all(a >= b for a, b in zip(cycles, cycles[1:]))


class TestBaselines:
    def test_upcast_rules(self):
        assert upcast_tensor_core(FP6) == FP8
        assert upcast_tensor_core(parse_format("e3m2")) == FP8
        assert upcast_tensor_core(parse_format("e5m2")) == FP16
        assert upcast_tensor_core(FP16) == FP16
        assert upcast_tensor_core(parse_format("int4")).render() == "int8"
        with pytest.raises(ConfigError):
            upcast_tensor_core(parse_format("e6m10"))

    def test_bit_fusion_widths(self):
        assert upcast_bit_fusion(FP6) == (8, 4)
        assert upcast_bit_fusion(FP16) == (16, 16)
        assert upcast_bit_fusion(FP4) == (4, 2)
        assert upcast_bit_fusion(parse_format("int4")) == (4, 4)
        with pytest.raises(ConfigError):
            upcast_bit_fusion(parse_format("e5m12"))

    def test_fp16_near_parity(self):
        acc = load_machine("mobile_a")
        g = gemm(2048, 2304, 768, FP16, FP16)
        flex = best_dataflow(g, acc)
        tc = simulate_baseline(g, acc, TENSOR_CORE)
        assert abs(1 - flex.cycles / tc.cycles) <= 0.10

    def test_fp6_pays_upcast_inflation(self):
        acc = load_machine("mobile_a")
        g = gemm(2048, 2304, 768, FP6, FP6)
        tc = simulate_baseline(g, acc, TENSOR_CORE)
        flex = best_dataflow(g, acc)
        assert flex.cycles < tc.cycles
        # storage inflation is exactly 8/6
        assert tc.dram_bits_read / simulate(g, acc, WS).dram_bits_read == pytest.approx(8 / 6)

    def test_fp4_native_on_fusion(self):
        acc = load_machine("mobile_a")
        g = gemm(2048, 2304, 768, FP4, FP4)
        bf = simulate_baseline(g, acc, BIT_FUSION)
        flex = simulate(g, acc, WS)
        assert flex.cycles <= bf.cycles
        assert bf.cycles <= simulate_baseline(g, acc, TENSOR_CORE).cycles

    def test_dominance_over_default_pairs(self):
        from anyprec.workloads import DEFAULT_SWEEP_PAIRS

        acc = load_machine("mobile_a")
        for pair in DEFAULT_SWEEP_PAIRS:
            a, w = (parse_format(t) for t in pair.split(":"))
            g = gemm(2048, 2304, 768, a, w, a, label=pair)
            assert best_dataflow(g, acc).cycles <= simulate_baseline(g, acc, TENSOR_CORE).cycles


class TestPackingAblation:
    def test_fp6_traffic_ratio_exact_when_tiles_match(self):
        acc = load_machine("mobile_a")
        packed, padded = packing_ablation(gemm(256, 256, 256), acc)
        r = (packed.dram_bits_read + packed.dram_bits_written) / (
            padded.dram_bits_read + padded.dram_bits_written
        )
        assert r == 6 / 8

    def test_fp8_no_delta(self):
        acc = load_machine("mobile_a")
        packed, padded = packing_ablation(gemm(512, 512, 512, FP8, FP8), acc)
        assert packed.cycles == padded.cycles
        assert packed.dram_bits_read == padded.dram_bits_read

    def test_memory_bound_improvement_band(self):
        # attention-context shape: DRAM-bound, single-tile reuse parity
        acc = load_machine("mobile_a")
        g = gemm(24576, 64, 2048, label="ctx")
        packed, padded = packing_ablation(g, acc)
        assert packed.breakdowns["cycles"]["dram"] == max(packed.breakdowns["cycles"].values())
        imp = 1 - packed.cycles / padded.cycles
        assert 0 < imp <= 0.30
