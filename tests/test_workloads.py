"""Model expansion into GEMMs and precision sweeps."""

import logging

import pytest

from anyprec.codec import parse_format
from anyprec.control import PEConfig
from anyprec.errors import ConfigError
from anyprec.workloads import (
    DEFAULT_SWEEP_PAIRS,
    ModelSpec,
    builtin_models,
    expand,
    layer_gemm_dims,
    load_model,
    precision_sweep,
    total_macs,
)

FP6 = parse_format("e2m3")
FP16 = parse_format("e5m10")


class TestModels:
    def test_builtin_table_values(self):
        rows = {
            "bert_base": (2048, 12, 768, 3072),
            "llama2_7b": (2048, 32, 4096, 11008),
            "llama2_70b": (2048, 80, 8192, 28672),
            "gpt3": (2048, 96, 12288, 49152),
        }
        assert set(builtin_models()) == set(rows)
        for name, (seq, layers, d, f) in rows.items():
            m = load_model(name)
            assert (m.seq_len, m.num_layers, m.d_model, m.d_ff) == (seq, layers, d, f)
            assert m.heads == d // 64


class TestExpand:
    def test_bert_counts(self):
        gemms = expand(load_model("bert_base"), FP6, FP6)
        assert len(gemms) == 12 * 6
        labels = {g.label.split(".")[-1] for g in gemms}
        assert labels == {"qkv", "attn_score", "attn_context", "out_proj", "ffn_up", "ffn_down"}

    def test_qkv_dims(self):
        m = load_model("bert_base")
        assert layer_gemm_dims(m, "qkv") == (2048, 3 * 768, 768)
        assert layer_gemm_dims(m, "ffn_up") == (2048, 3072, 768)
        assert layer_gemm_dims(m, "attn_score") == (12 * 2048, 2048, 64)

    def test_seq_one_degenerate(self):
        m = ModelSpec("tiny", seq_len=1, num_layers=1, d_model=64, d_ff=128)
        gemms = expand(m, FP6, FP6)
        assert all(g.m >= 1 and g.n >= 1 and g.k >= 1 for g in gemms)
        assert gemms[0].m == 1

    def test_total_macs_matches_closed_form(self):
        m = load_model("llama2_7b")
        s, d, f, h, hd = m.seq_len, m.d_model, m.d_ff, m.heads, m.head_dim
        per_layer = (
            s * 3 * d * d          # qkv
            + h * s * s * hd       # scores
            + h * s * hd * s       # context
            + s * d * d            # out projection
            + s * f * d            # ffn up
            + s * d * f            # ffn down
        )
        assert total_macs(m) == per_layer * m.num_layers
        got = sum(g.macs for g in expand(m, FP6, FP6))
        assert got == total_macs(m)

    def test_deterministic_order(self):
        a = [g.label for g in expand(load_model("bert_base"), FP6, FP6)]
        b = [g.label for g in expand(load_model("bert_base"), FP6, FP6)]
        assert a == b

    def test_attention_flag(self):
        m = load_model("bert_base")
        without = expand(m, FP6, FP6, include_attention=False)
        assert len(without) == 12 * 4
        assert all("attn" not in g.label for g in without)


class TestSweep:
    def test_fp16_baseline_point(self):
        m = load_model("bert_base")
        result = precision_sweep(m, ["e5m10:e5m10"])
        assert len(result) == 1
        pa, pw, gemms = result[0]
        assert (pa, pw) == ("e5m10", "e5m10")
        assert len(gemms) == 72

    def test_mixed_float_int_pair_rejected(self):
        # the datapath runs no mixed int/float pair, so the sweep skips it
        m = load_model("bert_base")
        result = precision_sweep(m, ["e5m10:int4", "e2m3:e2m3"])
        assert [(a, w) for a, w, _ in result] == [("e2m3", "e2m3")]
        with pytest.raises(ConfigError, match=r"\['int4:e2m3'\]"):
            precision_sweep(m, ["int4:e2m3"])

    def test_pairs_checked_against_the_pe(self):
        # int16's 15-bit magnitude exceeds the 12-bit mantissa register;
        # e5m10 fits a 24-bit register but not a 12-bit one
        m = load_model("bert_base")
        with pytest.raises(ConfigError, match="int16:int16"):
            precision_sweep(m, ["int16:int16"])
        assert len(precision_sweep(m, ["e5m10:e5m10"])) == 1
        with pytest.raises(ConfigError):
            precision_sweep(m, ["e5m10:e5m10"], pe_cfg=PEConfig(reg_width=12))

    def test_thirteen_pair_sweep_count(self):
        m = load_model("bert_base")
        result = precision_sweep(m, DEFAULT_SWEEP_PAIRS)
        assert len(result) == 13
        assert sum(len(g) for _, _, g in result) == 13 * 72

    def test_invalid_pair_skipped_with_warning(self, caplog):
        m = load_model("bert_base")
        with caplog.at_level(logging.WARNING):
            result = precision_sweep(m, ["e2m3:e2m3", "nonsense", "e30m30:e2m3"])
        assert len(result) == 1
        assert sum("skipping precision pair" in r.message for r in caplog.records) == 2
