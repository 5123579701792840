"""Energy accounting, areas, and derived metrics."""

import dataclasses

import pytest

from anyprec.archsim import GemmWorkload, best_dataflow, load_machine, packing_ablation, pe_throughput
from anyprec.codec import parse_format
from anyprec.control import PEConfig
from anyprec.cost import EnergyTable, edp, energy, load_energy_table, perf_per_area
from anyprec.errors import ConfigError

FP6 = parse_format("e2m3")
FP8 = parse_format("e4m3")


@pytest.fixture()
def table():
    return load_energy_table("default_synthetic")


@pytest.fixture()
def report():
    g = GemmWorkload(512, 768, 640, FP6, FP6, FP6, "g")
    return best_dataflow(g, load_machine("mobile_a"))


class TestEnergy:
    def test_provenance_required(self):
        with pytest.raises(ConfigError):
            EnergyTable(
                provenance="", prim_and_pj=1, tree_node_pj=1, exp_add_pj=1,
                sram_rd_pj=1, sram_wr_pj=1, noc_pj=1, dram_pj=1,
            )

    def test_default_table_labeled_synthetic(self, table):
        assert "synthetic" in table.provenance

    def test_zero_work_zero_energy(self, table, report):
        r = dataclasses.replace(
            report,
            dram_bits_read=0, dram_bits_written=0, noc_bits=0,
            sram_read_bits=0, sram_write_bits=0,
            breakdowns={"counts": {"prim_bit_ops": 0, "tree_node_bits": 0, "exp_add_bits": 0}},
        )
        total, bd = energy(r, table)
        assert total == 0 and all(v == 0 for v in bd.values())

    def test_breakdown_sums_to_total(self, table, report):
        total, bd = energy(report, table)
        assert abs(sum(bd.values()) - total) <= 1e-9 * total

    def test_linear_in_every_entry(self, table, report):
        base, _ = energy(report, table)
        for name in ("prim_and_pj", "tree_node_pj", "exp_add_pj",
                     "sram_rd_pj", "sram_wr_pj", "noc_pj", "dram_pj"):
            bumped = dataclasses.replace(table, **{name: getattr(table, name) * 2})
            up, _ = energy(report, bumped)
            down, _ = energy(report, dataclasses.replace(table, **{name: 0.0}))
            # doubling one entry adds exactly its component; zeroing removes it
            assert up - base == pytest.approx(base - down, rel=1e-12)

    def test_doubling_dram_price_doubles_dram_component_only(self, table, report):
        _, bd1 = energy(report, table)
        _, bd2 = energy(report, dataclasses.replace(table, dram_pj=table.dram_pj * 2))
        assert bd2["dram"] == pytest.approx(2 * bd1["dram"])
        assert bd2["compute"] == bd1["compute"]
        assert bd2["sram"] == bd1["sram"]

    def test_fp6_cheaper_than_fp8_padded(self, table):
        acc = load_machine("mobile_a")
        g = GemmWorkload(2048, 2304, 768, FP6, FP6, FP6, "qkv")
        packed, padded = packing_ablation(g, acc)
        e_packed, _ = energy(packed, table)
        e_padded, _ = energy(padded, table)
        assert e_packed < e_padded


class TestPerfPerArea:
    def test_halving_area_doubles_metric(self, table, report):
        half = dataclasses.replace(table, area_override_mm2=table.total_area_mm2(1024) / 2)
        assert perf_per_area(report, half, 1024) == pytest.approx(
            2 * perf_per_area(report, table, 1024)
        )

    def test_zero_area_rejected(self, table, report):
        bad = dataclasses.replace(table, area_override_mm2=0.0)
        with pytest.raises(ConfigError):
            perf_per_area(report, bad, 1024)

    def test_reg_width_sweep_peaks_at_24(self):
        # throughput/area over a quadratic crossbar-driven area curve,
        # averaged over the fp6/fp8 working set, peaks at 24
        def score(reg):
            area = (reg / 24.0) ** 2
            tput = pe_throughput(FP6, FP6, PEConfig(reg_width=reg)) + pe_throughput(
                FP8, FP8, PEConfig(reg_width=reg)
            )
            return tput / area

        widths = range(16, 33, 2)
        best = max(widths, key=score)
        assert best == 24

    def test_relative_ordering_with_published_areas(self, table, report):
        # areas as config inputs: 18.62 vs 5.11 vs 4.70 mm^2 at mobile scale
        flexible = dataclasses.replace(table, area_override_mm2=18.62)
        serial_a = dataclasses.replace(table, area_override_mm2=5.11)
        serial_b = dataclasses.replace(table, area_override_mm2=4.70)
        p_flex = perf_per_area(report, flexible, 1024)
        # a serial machine at 52x the latency loses perf/area despite 3.6x less area
        slow = dataclasses.replace(report, seconds=report.seconds * 52)
        p_serial = perf_per_area(slow, serial_a, 1024)
        assert p_flex > p_serial
        assert perf_per_area(slow, serial_b, 1024) > p_serial  # smaller area ranks higher


class TestEdp:
    def test_published_cell_consistency(self):
        # latency x energy reproduces the published product
        assert edp(4.78, 97.70e-6) * 1e6 == pytest.approx(467.01, rel=0.01)

    def test_doubling_latency_doubles_edp(self, table, report):
        base = edp(report.seconds, energy(report, table)[0])
        slower = dataclasses.replace(report, seconds=report.seconds * 2)
        assert edp(slower.seconds, energy(slower, table)[0]) == pytest.approx(2 * base)

    def test_serial_stub_loses_on_edp(self, table, report):
        # 52x latency at 7.1x lower power: energy = power*time rises 52/7.1
        total, _ = energy(report, table)
        base = edp(report.seconds, total)
        stub_energy = (total / report.seconds / 7.1) * (report.seconds * 52)
        stub = edp(report.seconds * 52, stub_energy)
        assert stub > base
