"""Pinned `run.csv` / `ablate.csv` bytes for the shipped presets, and the
row order of a long model against a per-layer reference sweep.

Any change to a simulated figure, its formatting or the row order moves a
digest here; a change that moves one on purpose says so and lists the rows.
"""

import hashlib
import io

import pytest

from anyprec import cli, workloads
from anyprec.cli import RunManifest, cmd_ablate, cmd_run
from anyprec.codec import parse_format
from anyprec.workloads import DEFAULT_SWEEP_PAIRS, ModelSpec

# default pairs, best dataflow, one run per (machine, model) preset
RUN_CSV_SHA256 = {
    ("cloud_a", "bert_base"): "437157a5ee89273b5b940f4f73a67c041c212333404905bc9d4c55e9388cdd08",
    ("cloud_a", "gpt3"): "2f1b0c786c785274fba007a2fbd6eef005c9882e0ca965f875697eee816439df",
    ("cloud_a", "llama2_70b"): "86a66e81b80ab4b3488c97db9cc824960c08324623215d3d928a3d09257b9f47",
    ("cloud_a", "llama2_7b"): "06241aa392771cb2283e125c440b2aa88c361bdfd08d8ade2d5dfda95f97490e",
    ("cloud_b", "bert_base"): "fc044208255c66b5d2e33e2ca3f31ffff47ab50bd94d2c771fa24c24d974bc9a",
    ("cloud_b", "gpt3"): "50b63f9992027e10ce9456985e80058eae73e2c3b69ac50c98a21c27dcc80541",
    ("cloud_b", "llama2_70b"): "79ce580afa691d3e6a41a69feb891cd4a5da79a767888c887eff6926a7165d96",
    ("cloud_b", "llama2_7b"): "2056a7476941a3123b719340399e5c7faab4da3d75423d73c89279c00a6107d2",
    ("mobile_a", "bert_base"): "3058f8453256cac9602656db9b4393c29890ff2cbe86cf38f1ad3df507747dae",
    ("mobile_a", "gpt3"): "416a50b5b06d1284b7dc5d93a4801e21f8467ee5f7e4e062651fa7e640f8426b",
    ("mobile_a", "llama2_70b"): "983f99966654bac8e3ffd3dcecc6910dea171b8ca9a5c54b050c0e3fee4cab75",
    ("mobile_a", "llama2_7b"): "2fc1de2163b1882dadbb835b876f0d03d7525c44f100f68d2ec54d92b4351701",
    ("mobile_b", "bert_base"): "38116496290c3bd1e009577d36dfcefbfff789e0b189c52ab1f48042283243e8",
    ("mobile_b", "gpt3"): "95e281b26c2ef72f2fc5b11fd698b01d35ac7ded56e33ca7df4bacfefaeadefd",
    ("mobile_b", "llama2_70b"): "d4957c0ba4a7966d35945768ef91a64964bbcd9fa17f74a33724d7a3f8add893",
    ("mobile_b", "llama2_7b"): "833a5006043a402577d6b9530da1d5e642566a19f80bdf39de753f3969a625ec",
}

# pairs e2m3:e2m3 and e4m3:e2m1, one (model, dataflow) per machine
ABLATE_CSV_SHA256 = {
    ("cloud_a", "gpt3", "os"): "f652efbdf3ac76506b91f61cb7864c685ce5dc95df71004228746f37dc258fcd",
    ("cloud_b", "llama2_70b", "ws"): "a3d86c4fc441a7ae23fe17f7eabea033583017772e54e03d2ddb4a665ed6f14f",
    ("mobile_a", "bert_base", "ws"): "7a5ad9b3f85b4d8c626fdd3247975804999f958eb3532194df518ffa06d3c9ca",
    ("mobile_b", "llama2_7b", "os"): "5c4c68c2d30afc88e7266179da8c7fb4f7fc551824c07d3a6a3880304085dd71",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("machine, model", sorted(RUN_CSV_SHA256))
def test_run_csv_pinned(machine, model, tmp_path):
    manifest = RunManifest(machine=machine, models=[model], pairs=list(DEFAULT_SWEEP_PAIRS),
                           dataflow="best", out_dir=str(tmp_path))
    cmd_run(manifest, stdout=io.StringIO())
    assert _sha256(tmp_path / "run.csv") == RUN_CSV_SHA256[machine, model]


@pytest.mark.parametrize("machine, model, dataflow", sorted(ABLATE_CSV_SHA256))
def test_ablate_csv_pinned(machine, model, dataflow, tmp_path):
    manifest = RunManifest(machine=machine, models=[model], pairs=["e2m3:e2m3", "e4m3:e2m1"],
                           dataflow=dataflow, out_dir=str(tmp_path))
    cmd_ablate(manifest, stdout=io.StringIO())
    assert _sha256(tmp_path / "ablate.csv") == ABLATE_CSV_SHA256[machine, model, dataflow]


def per_layer_sweep(manifest, evaluate):
    """Reference sweep: one GemmWorkload per (layer, class, pair) from
    `precision_sweep` / `expand` on the whole model, each distinct point
    evaluated once, rows in sweep order (the commands sort them); like
    `cli._sweep`, it gives each layer's label without the model name."""
    done = {}
    out = []
    for model_name in manifest.models:
        model = workloads.load_model(model_name)
        for pa, pw, gemms in workloads.precision_sweep(
            model, manifest.pairs, include_attention=manifest.include_attention
        ):
            for g in gemms:
                key = (g.m, g.n, g.k, g.fmt_a, g.fmt_w, g.fmt_o)
                if key not in done:
                    done[key] = evaluate(g)
                layer = g.label[len(model.name) + 1:]
                out.append((model.name, layer, f"{pa}:{pw}", done[key]))
    return out


# 101 layers: labels L99 / L100 sort as strings (L10 < L100 < L11)
LONG_MODEL = ModelSpec(
    "long", seq_len=32, num_layers=101, d_model=128, d_ff=384,
    precision_plan={
        "qkv": (parse_format("e4m3"), parse_format("e2m1")),
        "ffn_down": (parse_format("e2m3"), parse_format("e2m2")),
    },
)


@pytest.mark.parametrize("command, name, include_attention", [
    (cmd_run, "run.csv", True),
    (cmd_run, "run.csv", False),
    (cmd_ablate, "ablate.csv", True),
])
def test_long_model_rows_match_per_layer_sweep(command, name, include_attention, tmp_path,
                                               monkeypatch):
    def manifest(out):
        # a duplicate pair and a duplicate model name give tied sort keys
        return RunManifest(
            machine="mobile_b", models=[LONG_MODEL, "bert_base", LONG_MODEL],
            pairs=["e2m3:e2m3", "e5m10:e2m1", "e2m3:e2m3"], dataflow="os",
            out_dir=str(out), include_attention=include_attention,
        )

    got_out, want_out = io.StringIO(), io.StringIO()
    command(manifest(tmp_path / "got"), stdout=got_out)
    monkeypatch.setattr(cli, "_sweep", per_layer_sweep)
    command(manifest(tmp_path / "want"), stdout=want_out)
    got = (tmp_path / "got" / name).read_bytes()
    assert got == (tmp_path / "want" / name).read_bytes()
    assert got_out.getvalue().replace(str(tmp_path / "got"), str(tmp_path / "want")) == (
        want_out.getvalue()
    )
    # layers sort as strings: L10 < L100 < L11, and L99 last
    layers = [row.split(b",")[1] for row in got.splitlines()[2:] if row.startswith(b"long,")]
    assert layers == sorted(layers)
    assert layers.index(b"L10.qkv") < layers.index(b"L100.qkv") < layers.index(b"L11.ffn_up")
    assert layers[-1] == b"L99.qkv"
