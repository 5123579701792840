"""Energy, area, and derived-metric accounting over simulation reports.

All absolute joules and square millimeters come from a user-supplied
per-action table; the shipped default is synthetic (labeled as such) and
only ratios and directions are meaningful with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .archsim import SimReport
from .config import POSITIVE, Key, load_json_config
from .errors import ConfigError


_PJ_ENTRIES = ("prim_and_pj", "tree_node_pj", "exp_add_pj", "sram_rd_pj", "sram_wr_pj",
               "noc_pj", "dram_pj")


@dataclass(frozen=True)
class EnergyTable:
    """Per-action energies (picojoules per bit or per action) and component
    areas. The provenance string is mandatory."""

    provenance: str
    prim_and_pj: float
    tree_node_pj: float
    exp_add_pj: float
    sram_rd_pj: float
    sram_wr_pj: float
    noc_pj: float
    dram_pj: float
    pe_mm2: dict = field(default_factory=dict)
    glb_mm2: float = 0.0
    noc_mm2: float = 0.0
    bpu_mm2: float = 0.0
    area_override_mm2: float | None = None

    def __post_init__(self):
        if not self.provenance:
            raise ConfigError("energy table requires a provenance string")
        for name in _PJ_ENTRIES:
            if getattr(self, name) < 0:
                raise ConfigError(f"energy entry {name} must be >= 0")

    def pe_area_mm2(self) -> float:
        return sum(self.pe_mm2.values())

    def total_area_mm2(self, num_pes: int) -> float:
        if self.area_override_mm2 is not None:
            return self.area_override_mm2
        return num_pes * self.pe_area_mm2() + self.glb_mm2 + self.noc_mm2 + self.bpu_mm2


_ENERGY_SCHEMA = {
    "provenance": Key(str),
    **dict.fromkeys(_PJ_ENTRIES, Key(float)),
    "pe_mm2": Key(dict, required=False),
    **dict.fromkeys(("glb_mm2", "noc_mm2", "bpu_mm2"), Key(float, required=False)),
    "area_override_mm2": Key(float, required=False, lo=POSITIVE, nullable=True),
}


def load_energy_table(source) -> EnergyTable:
    """Load a table from a JSON file path or the name of a shipped table."""
    if isinstance(source, EnergyTable):
        return source
    return EnergyTable(**load_json_config("energy table", "energy", source, _ENERGY_SCHEMA))


_PJ = 1e-12


def energy(report: SimReport, table: EnergyTable) -> tuple[float, dict]:
    """Total joules and a per-component breakdown.

    Compute energy scales with the primitive count (mantissa bit products)
    plus the exponent add width; traffic energy uses the report's packed
    bit counts.
    """
    counts = report.breakdowns.get("counts")
    if counts is None:
        raise ConfigError("report carries no action counts")
    compute = (
        counts["prim_bit_ops"] * table.prim_and_pj
        + counts["tree_node_bits"] * table.tree_node_pj
        + counts["exp_add_bits"] * table.exp_add_pj
    ) * _PJ
    sram = (
        report.sram_read_bits * table.sram_rd_pj
        + report.sram_write_bits * table.sram_wr_pj
    ) * _PJ
    noc = report.noc_bits * table.noc_pj * _PJ
    dram = (report.dram_bits_read + report.dram_bits_written) * table.dram_pj * _PJ
    breakdown = {"compute": compute, "sram": sram, "noc": noc, "dram": dram}
    total = sum(breakdown.values())
    report.energy_j = total
    report.breakdowns["energy_j"] = breakdown
    return total, breakdown


def perf_per_area(report: SimReport, table: EnergyTable, num_pes: int) -> float:
    """Throughput per area: (MACs/s) / mm^2 with the table's areas."""
    area = table.total_area_mm2(num_pes)
    if area <= 0:
        raise ConfigError("total area must be positive")
    return (report.macs / report.seconds) / area


def edp(seconds: float, joules: float) -> float:
    """Energy-delay product in joule-seconds."""
    return seconds * joules
