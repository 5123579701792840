"""CLI subcommands: validation sweeps, run determinism, file packing."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyprec import archsim
from anyprec.bitpack import read_packed_file
from anyprec.cli import RunManifest, cmd_run, cmd_validate, main
from anyprec.cost import load_energy_table
from anyprec.validate import float_formats
from anyprec.workloads import DEFAULT_SWEEP_PAIRS, LAYER_CLASSES


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "anyprec.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


class TestValidate:
    def test_small_scope_exits_zero(self):
        rc = cmd_validate("codec", max_bits=6, samples=100, seed=0)
        assert rc == 0

    def test_pack_scope(self):
        assert cmd_validate("pack", max_bits=6, samples=100, seed=0) == 0

    def test_pe_subset_fast(self):
        assert cmd_validate("pe", max_bits=5, samples=50, seed=0) == 0

    def test_cli_entry(self):
        proc = run_cli(["validate", "--scope", "codec", "--max-bits", "5"])
        assert proc.returncode == 0
        assert "0 mismatches" in proc.stdout

    def test_injected_fault_detected(self, monkeypatch):
        # corrupt the implicit-1 correction and confirm the sweep localizes it
        import anyprec.datapath as dp
        import anyprec.validate as val

        real = dp.apply_implicit_one
        monkeypatch.setattr(dp, "apply_implicit_one", lambda raw, a, w, p, q: real(raw, a, w, p, q) + (1 if p else 0))
        r = val.sweep_pair(
            val.parse_format("e2m3"), val.parse_format("e2m3")
        )
        assert r.mismatches > 0
        assert "significand" in r.first_failure


class TestRun:
    def _manifest(self, out, jobs=1, pairs=("e2m3:e2m3",)):
        return RunManifest(
            machine="mobile_a",
            models=["bert_base"],
            pairs=list(pairs),
            dataflow="best",
            out_dir=str(out),
            jobs=jobs,
        )

    def test_csv_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_run(self._manifest(a))
        cmd_run(self._manifest(b))
        assert (a / "run.csv").read_bytes() == (b / "run.csv").read_bytes()

    def test_csv_deterministic_under_parallelism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_run(self._manifest(a, jobs=1))
        cmd_run(self._manifest(b, jobs=4))
        assert (a / "run.csv").read_bytes() == (b / "run.csv").read_bytes()

    def test_empty_pairs_gives_header_only(self, tmp_path):
        cmd_run(self._manifest(tmp_path, pairs=()))
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("#") and lines[1].startswith("model,")

    def test_normalized_column_is_one_for_tensorcore(self, tmp_path):
        cmd_run(self._manifest(tmp_path))
        rows = (tmp_path / "run.csv").read_text().splitlines()[2:]
        header = (tmp_path / "run.csv").read_text().splitlines()[1].split(",")
        arch_i = header.index("arch")
        norm_i = header.index("latency_vs_tensorcore")
        for row in rows:
            cells = row.split(",")
            if cells[arch_i] == "tensorcore":
                assert cells[norm_i] == "1"
            if cells[arch_i] == "flexible":
                assert float(cells[norm_i]) <= 1.0

    def test_env_var_overrides_out_dir(self, tmp_path):
        target = tmp_path / "env_target"
        proc = run_cli(
            ["run", "--models", "bert_base", "--pairs", "e2m3:e2m3", "--out", str(tmp_path / "ignored")],
            env_extra={"ANYPREC_OUTPUT_DIR": str(target)},
        )
        assert proc.returncode == 0
        assert (target / "run.csv").exists()

    def test_unknown_machine_exits_two(self, tmp_path):
        proc = run_cli(["run", "--machine", "nonexistent", "--out", str(tmp_path)])
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_default_pairs_csv_pinned(self, tmp_path):
        # bert_base on mobile_a over the 13 default pairs; any change to a
        # simulated figure, its formatting or the row order moves this digest
        cmd_run(self._manifest(tmp_path, pairs=DEFAULT_SWEEP_PAIRS))
        digest = hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest()
        assert digest == "3058f8453256cac9602656db9b4393c29890ff2cbe86cf38f1ad3df507747dae"

    def test_dotted_model_name_keeps_layer_column(self, tmp_path):
        model = {"name": "my.model", "seq_len": 128, "num_layers": 1, "d_model": 128, "d_ff": 256}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        assert main(["run", "--models", str(path), "--pairs", "e2m3:e2m3",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()[2:]
        assert {tuple(row.split(",")[:2]) for row in rows} == {
            ("my.model", f"L00.{cls}") for cls in LAYER_CLASSES
        }

    def test_each_distinct_point_simulated_once(self, tmp_path, monkeypatch):
        calls = []
        real = archsim.best_dataflow

        def counting(g, machine, *args, **kwargs):
            calls.append((g.m, g.n, g.k, g.fmt_a, g.fmt_w, g.fmt_o))
            return real(g, machine, *args, **kwargs)

        monkeypatch.setattr(archsim, "best_dataflow", counting)
        cmd_run(self._manifest(tmp_path, pairs=DEFAULT_SWEEP_PAIRS))
        rows = (tmp_path / "run.csv").read_text().splitlines()[2:]
        # 12 layers x 6 layer classes x 13 pairs, 3 architectures each
        assert len(rows) == 936 * 3
        assert len(calls) == len(set(calls)) == 6 * 13


class TestBadInput:
    """Bad arguments and configs end in a one-line error and exit code 2."""

    @pytest.mark.parametrize("argv", [
        ["validate", "--samples", "-5"],
        ["validate", "--samples", "0"],
        ["run", "--jobs", "0"],
    ])
    def test_argument_below_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("bits, needle", [("0", "must be >= 3"), ("2", "must be >= 3"), ("14", "must be <= 12")])
    def test_max_bits_out_of_range(self, bits, needle, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--scope", "codec", "--max-bits", bits])
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err

    def test_pack_container_zero(self, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"\x00" * 4)
        with pytest.raises(SystemExit) as exc:
            main(["pack", str(src), str(tmp_path / "out.fxbp"), "--fmt", "e2m3", "--container", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_pack_start_idx_beyond_header_field(self, tmp_path, capsys):
        src = tmp_path / "src.bin"
        src.write_bytes(b"\x00" * 4)
        out = tmp_path / "out.fxbp"
        with pytest.raises(SystemExit) as exc:
            main(["pack", str(src), str(out), "--fmt", "e2m3", "--start-idx", "70000"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "must be <= 65535, got 70000" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("unpack", [False, True])
    def test_pack_missing_input(self, unpack, tmp_path, capsys):
        argv = ["pack", str(tmp_path / "missing.bin"), str(tmp_path / "out.bin"), "--fmt", "e2m3"]
        self._expect_config_error(argv + (["--unpack"] if unpack else []), capsys, "missing.bin")

    @pytest.mark.parametrize("key, value", [
        ("num_pes", "4"), ("array_x", 2.0), ("reg_width", True), ("wgt_glb_mb", "2"),
    ])
    def test_machine_value_types(self, key, value, tmp_path, capsys):
        machine = {"name": "tiny", "num_pes": 4, "array_x": 2, "array_y": 2,
                   "wgt_glb_mb": 1, "act_out_glb_mb": 1, "noc_w_gbps": 8,
                   "noc_a_gbps": 8, "offchip_gbps": 4}
        machine[key] = value
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(machine))
        self._expect_config_error(
            ["run", "--machine", str(path), "--pairs", "e2m3:e2m3", "--out", str(tmp_path)],
            capsys, f"{key} must be",
        )

    @pytest.mark.parametrize("key, value", [
        ("clock_ghz", 0), ("offchip_gbps", 0), ("reg_width", 0), ("noc_w_gbps", -1),
        ("wgt_glb_mb", 0), ("num_pes", 0), ("reconfig_cycles", -5),
        ("name", 7), ("reg_width", 1), ("reg_width", 11), ("wgt_glb_mb", 1e308),
        ("local_buf_kb_per_pe", 1e308), ("offchip_gbps", 1e-320), ("clock_ghz", 1e300),
        ("wgt_glb_mb", 1e-7),
    ])
    def test_machine_value_ranges(self, key, value, tmp_path, capsys):
        self.test_machine_value_types(key, value, tmp_path, capsys)

    @pytest.mark.parametrize("flag, preset, key, needle", [
        ("--machine", "mobile_a", "reg_widht", "unknown key 'reg_widht' (did you mean 'reg_width'?)"),
        ("--machine", "mobile_a", "reconfig_cylces",
         "unknown key 'reconfig_cylces' (did you mean 'reconfig_cycles'?)"),
        ("--models", "bert_base", "num_layer", "unknown key 'num_layer' (did you mean 'num_layers'?)"),
        ("--models", "bert_base", "precision_plan", "unknown key 'precision_plan'"),
        ("--energy-table", "default_synthetic", "area_overide_mm2",
         "unknown key 'area_overide_mm2' (did you mean 'area_override_mm2'?)"),
    ])
    def test_unknown_key(self, flag, preset, key, needle, tmp_path, capsys):
        subdir = {"--machine": "machines", "--models": "models", "--energy-table": "energy"}[flag]
        raw = json.loads(resources.files("anyprec").joinpath(f"data/{subdir}/{preset}.json").read_text())
        raw[key] = {} if key == "precision_plan" else 16
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        self._expect_config_error(
            ["run", flag, str(path), "--pairs", "e2m3:e2m3", "--out", str(tmp_path)], capsys, needle
        )

    def test_every_pair_rejected(self, tmp_path, capsys):
        code = main(["run", "--pairs", "bogus:e2m3,x:y", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: no valid precision pair among ['bogus:e2m3', 'x:y']"
        ]
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("pair", ["int16:int16", "int4:e2m3"])
    def test_pair_the_pe_cannot_run(self, pair, tmp_path, capsys):
        # int16's 15-bit magnitude exceeds the 12-bit mantissa register, and
        # the datapath runs no mixed int/float pair
        self._expect_config_error(
            ["run", "--pairs", pair, "--out", str(tmp_path)], capsys, f"['{pair}']"
        )
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("num_layers", "2"), ("d_model", 768.0), ("head_dim", True), ("name", 7), ("head_dim", 0),
        ("d_model", 10**200), ("seq_len", 10**160), ("name", "my,model"), ("name", "my\nmodel"),
    ])
    def test_model_values(self, key, value, tmp_path, capsys):
        model = {"name": "tiny", "seq_len": 128, "num_layers": 2, "d_model": 768, "d_ff": 3072}
        model[key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        self._expect_config_error(
            ["run", "--models", str(path), "--pairs", "e2m3:e2m3", "--out", str(tmp_path)],
            capsys, f"{key} must be" if value else "must be positive",
        )

    def test_empty_model_name(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": "", "seq_len": 128, "num_layers": 2, "d_model": 768,
                                    "d_ff": 3072}))
        self._expect_config_error(
            ["run", "--models", str(path), "--pairs", "e2m3:e2m3", "--out", str(tmp_path)],
            capsys, "model name must be non-empty",
        )
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("key, value, needle", [
        ("glb_mm2", "2.8", "glb_mm2 must be a number"),
        ("bpu_mm2", None, "bpu_mm2 must be a number"),
        ("area_override_mm2", "1", "area_override_mm2 must be a number"),
        ("pe_mm2", {"separator": "x"}, "pe_mm2 must map names to numbers"),
        ("pe_mm2", [0.1], "pe_mm2 must map names to numbers"),
        ("provenance", 7, "provenance must be a string"),
        ("glb_mm2", -5, "glb_mm2 must be >= 0"),
        ("pe_mm2", {"x": -3}, "pe_mm2['x'] must be >= 0"),
        ("area_override_mm2", 0, "area_override_mm2 must be positive"),
        ("dram_pj", 1e308, "dram_pj must be 0 or of magnitude"),
    ])
    def test_energy_area_types(self, key, value, needle, tmp_path, capsys):
        table = dataclasses.asdict(load_energy_table("default_synthetic"))
        table[key] = value
        path = tmp_path / "e.json"
        path.write_text(json.dumps(table))
        self._expect_config_error(
            ["run", "--energy-table", str(path), "--pairs", "e2m3:e2m3", "--out", str(tmp_path)],
            capsys, needle,
        )

    @pytest.mark.parametrize("key, value", [("dram_pj", "6.0"), ("noc_pj", None), ("sram_rd_pj", False)])
    def test_energy_value_types(self, key, value, tmp_path, capsys):
        table = dataclasses.asdict(load_energy_table("default_synthetic"))
        table[key] = value
        path = tmp_path / "e.json"
        path.write_text(json.dumps(table))
        self._expect_config_error(
            ["run", "--energy-table", str(path), "--pairs", "e2m3:e2m3", "--out", str(tmp_path)],
            capsys, f"{key} must be a number",
        )

    @pytest.mark.parametrize("flag", ["--machine", "--models", "--energy-table"])
    def test_config_not_an_object(self, flag, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        self._expect_config_error(
            ["run", flag, str(path), "--pairs", "e2m3:e2m3", "--out", str(tmp_path)],
            capsys, "is not a JSON object",
        )

    def _expect_config_error(self, argv, capsys, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err

    def test_missing_machine_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        self._expect_config_error(
            ["run", "--machine", missing, "--out", str(tmp_path)], capsys, "nope.json"
        )

    @pytest.mark.parametrize("flag", ["--machine", "--models", "--energy-table"])
    def test_malformed_json(self, flag, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self._expect_config_error(
            ["run", flag, str(bad), "--pairs", "e2m3:e2m3", "--out", str(tmp_path)],
            capsys, "bad.json",
        )


# --------------------------------------------------------------------------
# fuzz: generated --pairs strings through `anyprec run` and `anyprec ablate`
# --------------------------------------------------------------------------

FORMATS = st.one_of(
    st.sampled_from([str(f) for f in float_formats(12)]),                   # valid floats
    st.sampled_from(["e5m20", "e12m12", "e30m30", "e11m12", "int13", "int16", "int32"]),  # oversized
    st.integers(2, 12).map(lambda bits: f"int{bits}"),
    st.sampled_from(["uint4", "fp6:e2m3", "fp7:e2m3", "E4M3", " e2m1 "]),
    st.text(alphabet="emintfpu0123456789: ", max_size=8),                   # malformed
)
PAIRS_ARG = st.lists(
    st.one_of(st.tuples(FORMATS, FORMATS).map(":".join), st.text(max_size=6)), max_size=3
).map(",".join)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("pairs")
    (path / "tiny.json").write_text(json.dumps(
        {"name": "tiny", "seq_len": 64, "num_layers": 1, "d_model": 128, "d_ff": 256}
    ))
    return path


@given(command=st.sampled_from(["run", "ablate"]), pairs=PAIRS_ARG)
@settings(max_examples=200, deadline=None)
def test_generated_pairs_exit_zero_or_two(command, pairs, fuzz_dir):
    argv = [command, "--models", str(fuzz_dir / "tiny.json"), f"--pairs={pairs}",
            "--out", str(fuzz_dir / "out")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err.getvalue()


class TestAblate:
    def test_ablate_csv(self, tmp_path):
        proc = run_cli(
            ["ablate", "--models", "bert_base", "--pairs", "e2m3:e2m3", "--out", str(tmp_path)],
        )
        assert proc.returncode == 0
        text = (tmp_path / "ablate.csv").read_text()
        assert "packed" in text and "padded" in text


class TestPackCommand:
    def test_roundtrip_and_size_ratio(self, tmp_path):
        rng = random.Random(4)
        raw = bytes(rng.randrange(64) << 2 for _ in range(4096))
        src = tmp_path / "src.bin"
        src.write_bytes(raw)
        packed = tmp_path / "data.fxbp"
        back = tmp_path / "back.bin"

        proc = run_cli(["pack", str(src), str(packed), "--fmt", "e2m3"])
        assert proc.returncode == 0, proc.stderr
        buf = read_packed_file(packed)
        assert buf.elem_count == 4096
        # packed payload is 6/8 of the source plus the 18-byte header
        assert packed.stat().st_size == 18 + 4096 * 6 // 8

        proc = run_cli(["pack", "--unpack", str(packed), str(back), "--fmt", "e2m3"])
        assert proc.returncode == 0, proc.stderr
        assert back.read_bytes() == raw

    def test_empty_file(self, tmp_path):
        src = tmp_path / "empty.bin"
        src.write_bytes(b"")
        packed = tmp_path / "empty.fxbp"
        proc = run_cli(["pack", str(src), str(packed), "--fmt", "e2m3"])
        assert proc.returncode == 0
        assert read_packed_file(packed).elem_count == 0

    def test_malformed_header(self, tmp_path):
        bad = tmp_path / "bad.fxbp"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        out = tmp_path / "out.bin"
        proc = run_cli(["pack", "--unpack", str(bad), str(out), "--fmt", "e2m3"])
        assert proc.returncode == 2
        assert "error" in proc.stderr

    @pytest.mark.parametrize("container, count", [(8, 70_001), (16, 300), (24, 5)])
    def test_unpack_file_equals_per_word_write(self, container, count, tmp_path, capsys):
        # longer than one write chunk of 2**16 words, and multi-byte containers
        rng = random.Random(container)
        words = [rng.randrange(64) << (container - 6) for _ in range(count)]
        cbytes = container // 8
        src = tmp_path / "src.bin"
        with open(src, "wb") as fh:
            for w in words:
                fh.write(w.to_bytes(cbytes, "big"))
        packed, back = tmp_path / "data.fxbp", tmp_path / "back.bin"
        flags = ["--fmt", "e2m3", "--container", str(container)]
        assert main(["pack", str(src), str(packed), *flags]) == 0
        assert main(["pack", "--unpack", str(packed), str(back), *flags]) == 0
        assert back.read_bytes() == src.read_bytes()
