"""JSON config loading: the shipped presets pinned field by field, and a
fuzz of one-key mutations of them driven through `anyprec run`."""

import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyprec import archsim, cost, workloads
from anyprec.archsim import AcceleratorConfig, load_machine
from anyprec.cli import main
from anyprec.cost import EnergyTable, load_energy_table
from anyprec.errors import ConfigError
from anyprec.workloads import DEFAULT_SWEEP_PAIRS, ModelSpec, load_model

MB = 2**20


def _machine(name, num_pes, array_x, array_y, glb_mb, noc_w, noc_a, offchip):
    return AcceleratorConfig(
        name, num_pes, array_x, array_y, reg_width=24,
        wgt_glb_bytes=glb_mb * MB, act_out_glb_bytes=glb_mb * MB // 2,
        local_buf_bytes_per_pe=184, noc_w_gbps=noc_w, noc_a_gbps=noc_a,
        offchip_gbps=offchip, clock_hz=1e9, reconfig_cycles=64,
    )


# every shipped preset as the loaders built it before the configs had a schema
PRESETS = {
    "cloud_a": (load_machine, _machine("cloud_a", 8192, 128, 64, 16, 128, 64, 128)),
    "cloud_b": (load_machine, _machine("cloud_b", 16384, 128, 128, 32, 128, 128, 128)),
    "mobile_a": (load_machine, _machine("mobile_a", 1024, 32, 32, 2, 32, 32, 16)),
    "mobile_b": (load_machine, _machine("mobile_b", 4096, 64, 64, 4, 64, 64, 16)),
    "bert_base": (load_model, ModelSpec("bert_base", 2048, 12, 768, 3072, head_dim=64)),
    "gpt3": (load_model, ModelSpec("gpt3", 2048, 96, 12288, 49152, head_dim=64)),
    "llama2_70b": (load_model, ModelSpec("llama2_70b", 2048, 80, 8192, 28672, head_dim=64)),
    "llama2_7b": (load_model, ModelSpec("llama2_7b", 2048, 32, 4096, 11008, head_dim=64)),
    "default_synthetic": (load_energy_table, EnergyTable(
        provenance="synthetic, not paper-derived: per-bit energies scale with bit counts at "
                   "rough 15nm-class magnitudes; areas echo a mobile-scale floorplan",
        prim_and_pj=0.0015, tree_node_pj=0.0018, exp_add_pj=0.002, sram_rd_pj=0.02,
        sram_wr_pj=0.022, noc_pj=0.08, dram_pj=6.0,
        pe_mm2={"separator": 0.002, "primitive_generator": 0.0035, "reduction_tree": 0.0035,
                "exponent_adder": 0.0012, "alignment": 0.0015, "accumulator": 0.0018,
                "registers": 0.001, "routing": 0.0008},
        glb_mm2=2.8, noc_mm2=0.7, bpu_mm2=0.05, area_override_mm2=None,
    )),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_loads_to_pinned_dataclass(name):
    loader, expected = PRESETS[name]
    got = loader(name)
    # repr also tells an int field from an equal float one
    assert got == expected and repr(got) == repr(expected)
    assert loader(got) is got


# --------------------------------------------------------------------------
# fuzz: one key of a shipped preset mutated, then `anyprec run`
# --------------------------------------------------------------------------

KINDS = {  # flag -> (data subdirectory, presets, schema)
    "--machine": ("machines", archsim.builtin_machines(), archsim._MACHINE_SCHEMA),
    "--models": ("models", workloads.builtin_models(), workloads._MODEL_SCHEMA),
    "--energy-table": ("energy", ["default_synthetic"], cost._ENERGY_SCHEMA),
}


def _raw(flag, name):
    subdir = KINDS[flag][0]
    return json.loads(resources.files("anyprec").joinpath(f"data/{subdir}/{name}.json").read_text())


WRONG_TYPES = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.floats(allow_nan=True, allow_infinity=True),  # for an integer key
)
NUMBERS = st.one_of(
    st.sampled_from([0, -1, -0.5, 10**200, -(10**200)]),
    st.floats(min_value=1e-320, max_value=1e308),
    st.floats(min_value=-1e308, max_value=-1e-320),
    st.integers(min_value=-16, max_value=64),
    st.integers(min_value=-(2**60), max_value=2**60),
)
# a valid layer count writes that many rows, so only 1..4 and bad ones
LAYER_COUNTS = st.one_of(
    st.integers(1, 4), st.integers(max_value=0), st.integers(min_value=2**53 + 1),
    st.just(10**200), WRONG_TYPES,
)


@st.composite
def mutations(draw):
    """(flag, raw JSON): a shipped preset with one schema key deleted,
    misspelled (one letter dropped or doubled) or set to a drawn value."""
    flag = draw(st.sampled_from(sorted(KINDS)))
    _, names, schema = KINDS[flag]
    raw = _raw(flag, draw(st.sampled_from(names)))
    key = draw(st.sampled_from(sorted(schema)))
    action = draw(st.sampled_from(["delete", "drop a letter", "double a letter", "set"]))
    if action == "set":
        raw[key] = draw(LAYER_COUNTS if key == "num_layers" else st.one_of(WRONG_TYPES, NUMBERS))
    elif key in raw:
        value = raw.pop(key)
        i = draw(st.integers(0, len(key) - 1))
        if action == "drop a letter":
            raw[key[:i] + key[i + 1:]] = value
        elif action == "double a letter":
            raw[key[:i] + key[i] + key[i:]] = value
    if flag == "--models" and key != "num_layers" and "num_layers" in raw:
        raw["num_layers"] = 1
    return flag, raw


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "one_layer.json").write_text(json.dumps({**_raw("--models", "bert_base"), "num_layers": 1}))
    return path


@given(mutation=mutations(), pair=st.sampled_from(DEFAULT_SWEEP_PAIRS))
@settings(max_examples=250, deadline=None)
def test_mutated_preset_exits_zero_or_two(mutation, pair, workdir):
    flag, raw = mutation
    (workdir / "mutated.json").write_text(json.dumps(raw))
    configs = {
        "--machine": "mobile_a",
        "--models": str(workdir / "one_layer.json"),
        "--energy-table": "default_synthetic",
        flag: str(workdir / "mutated.json"),
    }
    argv = ["run", "--pairs", pair, "--out", str(workdir / "out")]
    for option, value in configs.items():
        argv += [option, value]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("name", ["a\nb", "a\r\nb", "mobile\n", "", "a\u2028b"])
def test_machine_name_is_one_nonempty_line(name, tmp_path):
    # errors start with the machine name, so a line break would split them;
    # num_pes 5 on a 2x2 array is the error the name used to split
    raw = {**_raw("--machine", "mobile_a"), "name": name, "num_pes": 5, "array_x": 2, "array_y": 2}
    (tmp_path / "m.json").write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--machine", str(tmp_path / "m.json"), "--pairs", "e2m3:e2m3",
                     "--out", str(tmp_path)])
    assert code == 2
    assert err.getvalue().splitlines() == [
        f"error: machine name must be non-empty, with no line break: {name!r}"
    ]
    with pytest.raises(ConfigError, match="machine name"):
        AcceleratorConfig(name, 1, 1, 1)
