"""Acceptance criteria, one test per criterion, each printing a pass/fail
line. Tolerances are pinned here; nothing defers to later calibration.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

import numpy as np

from anyprec.archsim import (
    BIT_FUSION,
    OS,
    TENSOR_CORE,
    AcceleratorConfig,
    GemmWorkload,
    best_dataflow,
    load_machine,
    packing_ablation,
    pe_throughput,
    simulate,
    simulate_baseline,
)
from anyprec.bitpack import PackedBuffer, PaddedStream, pack, packed_index, unpack
from anyprec.cli import RunManifest, cmd_run
from anyprec.codec import ExactNumber, decode, encode, mul_ref, parse_format
from anyprec.control import compile_bundle, compile_reduction_tree
from anyprec.cost import edp
from anyprec.datapath import apply_implicit_one, pe_mac_tile, segmented_add
from anyprec.validate import oracle_self_check, sweep_all_pairs
from anyprec.workloads import DEFAULT_SWEEP_PAIRS, expand, load_model

FP6 = parse_format("e2m3")
FP8 = parse_format("e4m3")
FP16 = parse_format("e5m10")


def criterion(num: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c1_master_oracle_equivalence():
    """Every float format pair, total bits 3..12 per operand: bit-identical
    to encode(mul_ref(decode)) — exhaustive at <=8 bits, >=10^4 random
    pairs above. Zero mismatches, under 5 minutes."""
    t0 = time.time()
    oracle_self_check(500, seed=1)
    results = sweep_all_pairs(max_bits=12, exhaustive_bits=8, samples=10_000, seed=0)
    elapsed = time.time() - t0
    cases = sum(r.cases for r in results)
    mism = sum(r.mismatches for r in results)
    exhaustive_pairs = sum(
        1 for r in results
        if parse_format(r.fmt_a).total_bits <= 8 and parse_format(r.fmt_w).total_bits <= 8
    )
    assert exhaustive_pairs == 27 * 27
    assert all(
        r.cases >= 10_000
        for r in results
        if parse_format(r.fmt_a).total_bits > 8 or parse_format(r.fmt_w).total_bits > 8
    )
    first = next((r.first_failure for r in results if r.first_failure), "")
    criterion(
        "1",
        mism == 0 and elapsed < 300,
        f"{len(results)} format pairs, {cases} cases, {mism} mismatches, {elapsed:.0f}s. {first}",
    )


def test_c2_tree_with_implicit_one():
    """All mantissa widths p, q in [0,6], all bit patterns: tree output
    plus implicit-1 correction equals (2^p+a)(2^q+w). Under 30 s."""
    t0 = time.time()
    bad = 0
    total = 0
    for p in range(0, 7):
        for q in range(0, 7):
            aa, ww = np.meshgrid(
                np.arange(1 << p, dtype=np.int64),
                np.arange(1 << q, dtype=np.int64),
                indexing="ij",
            )
            aa, ww = aa.ravel(), ww.ravel()
            if p and q:
                oids = [0] * (p * q)
                sids = [j for j in range(q) for _ in range(p)]
                _, plan = compile_reduction_tree(oids, sids)
                leaves = [((aa >> i) & 1) & ((ww >> j) & 1) for j in range(q) for i in range(p)]
                (raw,) = plan.evaluate(leaves)
            else:
                raw = np.zeros_like(aa)
            got = apply_implicit_one(raw, aa, ww, p, q)
            want = ((1 << p) + aa) * ((1 << q) + ww)
            bad += int((got != want).sum())
            total += got.size
    elapsed = time.time() - t0
    criterion("2", bad == 0 and elapsed < 30, f"{total} patterns, {bad} mismatches, {elapsed:.1f}s")


def test_c3_segmented_adder():
    """Widths 1..12: segmented sums equal scalar sums (exhaustive <=6 bits,
    10^4 random above) and carries never leak across the guard bit."""
    bad = 0
    total = 0
    rng = random.Random(3)
    for width in range(1, 13):
        seg = width + 1
        nseg = 144 // seg
        breaks = [1 if (i + 1) % seg == 0 else 0 for i in range(144)]
        if width <= 6:
            xs = np.arange(1 << width, dtype=np.int64)
            pairs = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
        else:
            pairs = np.asarray(
                [[rng.randrange(1 << width), rng.randrange(1 << width)] for _ in range(10_000)],
                dtype=np.int64,
            )
        # pack pairs into adder rows, nseg lanes per row
        rows = -(-len(pairs) // nseg)
        x = np.zeros((rows, 144), dtype=np.int8)
        y = np.zeros((rows, 144), dtype=np.int8)
        for idx, (a, b) in enumerate(pairs):
            r, lane = divmod(idx, nseg)
            for t in range(width):
                x[r, lane * seg + t] = (a >> t) & 1
                y[r, lane * seg + t] = (b >> t) & 1
        out = segmented_add(x, y, breaks)
        shifts = np.arange(seg, dtype=np.int64)
        for idx, (a, b) in enumerate(pairs):
            r, lane = divmod(idx, nseg)
            s = int((out[r, lane * seg : (lane + 1) * seg].astype(np.int64) << shifts).sum())
            bad += s != int(a + b)
            total += 1
        # guard-bit leakage: max values in every lane stay independent
        xm = np.zeros((1, 144), dtype=np.int8)
        ym = np.zeros((1, 144), dtype=np.int8)
        for lane in range(nseg):
            for t in range(width):
                xm[0, lane * seg + t] = 1
                ym[0, lane * seg + t] = 1
        om = segmented_add(xm, ym, breaks)
        for lane in range(nseg):
            s = int((om[0, lane * seg : (lane + 1) * seg].astype(np.int64) << shifts).sum())
            bad += s != 2 * ((1 << width) - 1)
            total += 1
    criterion("3", bad == 0, f"{total} additions, {bad} mismatches")


def test_c4_packing_unit():
    """Published index mapping, pack/unpack identity on 1000 random
    buffers, and an exact 0.75 FP6 packed/padded DRAM-bit ratio."""
    ok_index = [packed_index(i, 8, 6) for i in range(8, 14)] == list(range(6, 12))

    rng = random.Random(44)
    ok_rt = True
    for _ in range(1000):
        fmt = parse_format(f"e{rng.randrange(1, 5)}m{rng.randrange(0, 5)}")
        container = rng.choice([c for c in (8, 12, 16) if c >= fmt.total_bits])
        words = [rng.randrange(1 << fmt.total_bits) for _ in range(rng.randrange(0, 40))]
        stream = PaddedStream.from_elements(words, fmt, container)
        buf = pack(stream, rng.randrange(8))
        ok_rt &= unpack(buf, container).words == stream.words
        again = pack(unpack(buf, container), buf.start_bit)
        ok_rt &= (again.payload, again.nbits) == (buf.payload, buf.nbits)

    packed, padded = packing_ablation(
        GemmWorkload(256, 256, 256, FP6, FP6, FP6, "ratio"), load_machine("mobile_a")
    )
    ratio = (packed.dram_bits_read + packed.dram_bits_written) / (
        padded.dram_bits_read + padded.dram_bits_written
    )
    criterion(
        "4",
        ok_index and ok_rt and ratio == 0.75,
        f"index map {'ok' if ok_index else 'BAD'}, round-trips {'ok' if ok_rt else 'BAD'}, ratio {ratio}",
    )


def test_c5_accumulation_tolerance():
    """FP6 dot products of length <=16: exact when all deltas are zero;
    within 1 ulp of the exact-oracle truncation whenever no precision-loss
    event fired."""
    bundle = compile_bundle(FP6, FP6, FP8)
    rng = random.Random(55)
    checked = exact_checked = 0
    worst = Fraction(0)
    ok = True
    for trial in range(400):
        k = rng.randrange(1, 17)
        if trial % 2 == 0:
            e = rng.randrange(4)  # shared exponent: deltas all zero
            aw = [(rng.randrange(2) << 5) | (e << 3) | rng.randrange(8) for _ in range(k)]
            ww = [(rng.randrange(2) << 5) | (e << 3) | rng.randrange(8) for _ in range(k)]
        else:
            aw = [rng.randrange(64) for _ in range(k)]
            ww = [rng.randrange(64) for _ in range(k)]
        tile, stats = pe_mac_tile(
            PackedBuffer.from_words(aw, FP6), PackedBuffer.from_words(ww, FP6),
            1, 1, k, bundle, FP8,
        )
        exact = ExactNumber.zero()
        for a, b in zip(aw, ww):
            exact = exact.add(mul_ref(decode(a, FP6), decode(b, FP6)))
        want = encode(exact, FP8)
        got = decode(tile.words()[0], FP8)
        if stats.precision_loss_events == 0:
            checked += 1
            ulp = (
                Fraction(2) ** (want.exp_field - FP8.bias_value - FP8.man_bits)
                if not want.is_zero
                else Fraction(1, 1 << 12)
            )
            diff = abs(got.to_fraction() - want.to_fraction())
            worst = max(worst, diff / ulp if ulp else Fraction(0))
            ok &= diff <= ulp
            if trial % 2 == 0:
                exact_checked += 1
                ok &= got.word() == want.word()
    criterion(
        "5",
        ok and checked > 50 and exact_checked > 25,
        f"{checked} loss-free dots within 1 ulp (worst {float(worst):.3f}), "
        f"{exact_checked} zero-delta dots exact",
    )


def test_c6_throughput_self_consistency():
    """Reference PE rates and the compute-bound closed form within 5%."""
    t_fp6 = pe_throughput(FP6, FP6)
    t_fp8 = pe_throughput(FP8, FP8)
    acc = AcceleratorConfig("tiny64", 64, 8, 8)
    g = GemmWorkload(2048, 2048, 2048, FP6, FP6, FP6, "sq")
    r = simulate(g, acc, OS)
    ideal = g.macs / (64 * t_fp6)
    rel = abs(r.cycles - ideal) / ideal
    compute_bound = r.breakdowns["cycles"]["compute"] == max(r.breakdowns["cycles"].values())
    criterion(
        "6",
        t_fp6 == 16 and t_fp8 == 9 and compute_bound and rel < 0.05,
        f"fp6 rate {t_fp6}, fp8 rate {t_fp8}, square-GEMM deviation {rel:.4%}",
    )


def test_c7a_fp16_parity():
    acc = load_machine("mobile_a")
    worst = 0.0
    for g in expand(load_model("bert_base"), FP16, FP16)[:6]:
        flex = best_dataflow(g, acc)
        tc = simulate_baseline(g, acc, TENSOR_CORE)
        worst = max(worst, abs(1 - flex.cycles / tc.cycles))
    criterion("7a", worst <= 0.10, f"fp16 latency gap vs fixed-format baseline <= {worst:.2%}")


def test_c7b_fp6_reduction_band_and_trend():
    acc = load_machine("mobile_a")
    reds_tc, reds_bf = [], []
    for name in ("bert_base", "llama2_7b", "llama2_70b", "gpt3"):
        model = load_model(name)
        gs = expand(model, FP6, FP6)[: len(model.precision_plan) or 6]
        fb = sum(best_dataflow(g, acc).cycles for g in gs)
        tc = sum(simulate_baseline(g, acc, TENSOR_CORE).cycles for g in gs)
        bf = sum(simulate_baseline(g, acc, BIT_FUSION).cycles for g in gs)
        reds_tc.append(1 - fb / tc)
        reds_bf.append(1 - fb / bf)
    bert_tc, bert_bf = reds_tc[0], reds_bf[0]
    monotone = all(a <= b + 1e-9 for a, b in zip(reds_tc, reds_tc[1:])) or all(
        a >= b - 1e-9 for a, b in zip(reds_tc, reds_tc[1:])
    )
    criterion(
        "7b",
        0.20 <= bert_tc <= 0.70 and 0.10 <= bert_bf <= 0.50 and monotone,
        f"fp6 reduction vs fixed-format {bert_tc:.1%} (band 20-70%), "
        f"vs fusion {bert_bf:.1%} (band 10-50%), trend over model sizes "
        f"{[f'{r:.1%}' for r in reds_tc]} monotone={monotone}",
    )


def test_c7c_packing_ablation_band():
    acc = load_machine("mobile_a")
    gemms = expand(load_model("bert_base"), FP6, FP6)[:6]
    gemms += expand(load_model("llama2_7b"), FP6, FP6)[:6]
    mem_bound = []
    for g in gemms:
        packed, padded = packing_ablation(g, acc)
        pk = packed.breakdowns["cycles"]
        pd = padded.breakdowns["cycles"]
        if pk["dram"] == max(pk.values()) and pd["dram"] == max(pd.values()):
            mem_bound.append((g.label, 1 - packed.cycles / padded.cycles))
    ok = bool(mem_bound) and all(0 < imp <= 0.30 for _, imp in mem_bound)
    criterion(
        "7c",
        ok,
        f"{len(mem_bound)} memory-bound fp6 layers, improvements "
        f"{[f'{i:.1%}' for _, i in mem_bound]}",
    )


def test_c7d_dominance_over_thirteen_pairs():
    acc = load_machine("mobile_a")
    violations = []
    for pair in DEFAULT_SWEEP_PAIRS:
        fa, fw = (parse_format(t) for t in pair.split(":"))
        for g in expand(load_model("bert_base"), fa, fw)[:6]:
            flex = best_dataflow(g, acc)
            tc = simulate_baseline(g, acc, TENSOR_CORE)
            if flex.cycles > tc.cycles:
                violations.append((pair, g.label))
    criterion(
        "7d",
        not violations,
        f"{len(DEFAULT_SWEEP_PAIRS)} precision pairs, {len(violations)} dominance violations",
    )


def test_c8_edp_table_consistency():
    """Published latency x energy inputs reproduce every published EDP cell
    within 1%."""
    cells = [
        # (latency s, energy uJ, edp uJ*s)
        (83.95, 0.54, 45.33),
        (1195.55, 7.62, 9110.09),
        (6.94, 2.99, 20.75),
        (151.12, 36.18, 5467.52),
        (1.52, 9.84, 14.95),
        (20.52, 135.86, 2787.84),
        (20.58, 0.38, 7.82),
        (249.28, 4.65, 1159.15),
        (1.73, 2.99, 5.17),
        (37.78, 36.18, 1366.88),
        (0.45, 8.92, 4.01),
        (4.78, 97.70, 467.01),
    ]
    worst = 0.0
    for seconds, uj, want in cells:
        got = edp(seconds, uj * 1e-6) * 1e6
        worst = max(worst, abs(got - want) / want)
    criterion("8", worst < 0.01, f"12 cells, worst relative error {worst:.4%}")


def test_c9_run_determinism(tmp_path):
    """Identical manifests give byte-identical CSVs, serial or parallel."""
    outs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 4)):
        manifest = RunManifest(
            machine="mobile_a",
            models=["bert_base"],
            pairs=["e2m3:e2m3", "e5m10:e2m1"],
            dataflow="best",
            out_dir=str(tmp_path / name),
            jobs=jobs,
        )
        cmd_run(manifest)
        outs.append((tmp_path / name / "run.csv").read_bytes())
    criterion(
        "9",
        outs[0] == outs[1] == outs[2],
        f"3 runs (serial x2, 4 threads x1), {len(outs[0])} bytes each, identical",
    )
