"""Energy, area, and derived-metric accounting over simulation reports.

All absolute joules and square millimeters come from a user-supplied
per-action table; the shipped default is synthetic (labeled as such) and
only ratios and directions are meaningful with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .archsim import SimReport
from .errors import ConfigError


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
        for name in ("prim_and_pj", "tree_node_pj", "exp_add_pj",
                     "sram_rd_pj", "sram_wr_pj", "noc_pj", "dram_pj"):
            if getattr(self, name) < 0:
                raise ConfigError(f"energy entry {name} must be >= 0")

    def pe_area_mm2(self) -> float:
        return sum(self.pe_mm2.values())

    def total_area_mm2(self, num_pes: int) -> float:
        if self.area_override_mm2 is not None:
            return self.area_override_mm2
        return num_pes * self.pe_area_mm2() + self.glb_mm2 + self.noc_mm2 + self.bpu_mm2


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_energy_table(source) -> EnergyTable:
    """Load a table from a JSON file path or the name of a shipped table."""
    if isinstance(source, EnergyTable):
        return source
    name = str(source)
    try:
        if name.endswith(".json"):
            with open(name) as fh:
                raw = json.load(fh)
        else:
            ref = resources.files("anyprec").joinpath(f"data/energy/{name}.json")
            if not ref.is_file():
                raise ConfigError(f"unknown energy table {name!r}")
            raw = json.loads(ref.read_text())
        if not isinstance(raw, dict):
            raise ConfigError(f"energy table {name!r} is not a JSON object")
        for key, value in raw.items():
            numeric = key.endswith("_pj") or key in ("glb_mm2", "noc_mm2", "bpu_mm2") or (
                key == "area_override_mm2" and value is not None
            )
            if numeric and not _is_number(value):
                raise ConfigError(f"energy table {name!r}: {key} must be a number, got {value!r}")
            if key == "pe_mm2" and not (
                isinstance(value, dict) and all(map(_is_number, value.values()))
            ):
                raise ConfigError(
                    f"energy table {name!r}: pe_mm2 must map names to numbers, got {value!r}"
                )
        return EnergyTable(
            provenance=raw["provenance"],
            prim_and_pj=raw["prim_and_pj"],
            tree_node_pj=raw["tree_node_pj"],
            exp_add_pj=raw["exp_add_pj"],
            sram_rd_pj=raw["sram_rd_pj"],
            sram_wr_pj=raw["sram_wr_pj"],
            noc_pj=raw["noc_pj"],
            dram_pj=raw["dram_pj"],
            pe_mm2=raw.get("pe_mm2", {}),
            glb_mm2=raw.get("glb_mm2", 0.0),
            noc_mm2=raw.get("noc_mm2", 0.0),
            bpu_mm2=raw.get("bpu_mm2", 0.0),
            area_override_mm2=raw.get("area_override_mm2"),
        )
    except KeyError as exc:
        raise ConfigError(f"energy table missing entry {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"energy table {name!r}: {exc}") from exc


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


def edp_report(report: SimReport, table: EnergyTable) -> float:
    total, _ = energy(report, table)
    return edp(report.seconds, total)
