"""The four benchmark workloads: seeded inputs, the timed op, its check.

Each workload is cut into rounds. A round is a stratified draw: the seed
picks every input (formats, operand words, model dimensions, stream
contents), while the mix of op sizes is the same in every round, so the
figures of one run do not hinge on how many large ops a seed happened to
draw. Ops read and write files relative to the current directory, which
run.py points at a scratch directory. `Op.run` is the only timed part;
`Op.check` returns the op's work units, a problem string (None when the
output is correct) and the bytes that feed the workload's output digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from anyprec import archsim, bitpack, cli, codec, control, cost, datapath, validate, workloads
from anyprec.codec import FormatSpec, Kind, parse_format

# FXBP file layout: magic, version, kind, exp bits, man bits, count, start
FXBP_HEADER = struct.Struct("<4sBBBBQH")


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], tuple]


@dataclass(frozen=True)
class Suite:
    name: str
    work_unit: str
    setup: Callable[[], object]
    make_round: Callable[[object, int, int], list]  # (context, seed, round index)
    trace_rounds: int  # N: a traced run records rounds 1, 3, .., 2N-1


def _rng(name: str, seed: int, index: int | None = None) -> random.Random:
    return random.Random(f"{name}:{seed}" if index is None else f"{name}:{seed}:{index}")


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi), shuffled."""
    out = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def _container(bits: int) -> int:
    return 8 if bits <= 8 else 16


# --------------------------------------------------------------------------
# verify: validate.sweep_pair under acceptance C1's rules
# --------------------------------------------------------------------------


def _verify_setup():
    return validate.float_formats(12)


def _verify_round(fmts, seed, index):
    rng = _rng("verify", seed, index)
    if index == 0:
        # C1's largest exhaustive grids, every 8-bit x 8-bit pair: the run's
        # peak memory is then taken on the same cases whatever the seed
        wide = [f for f in fmts if f.total_bits == 8]
        pairs = [(fa, fw) for fa in wide for fw in wide]
    else:
        # each format once as activation and once as weight: a random
        # permutation, so every one of the 65 x 65 pairs is equally likely
        partners = fmts[:]
        rng.shuffle(partners)
        pairs = list(zip(fmts, partners))
    ops = [_verify_op(fa, fw, rng.randrange(2**32)) for fa, fw in pairs]
    rng.shuffle(ops)
    return ops


def _verify_op(fa: FormatSpec, fw: FormatSpec, op_seed: int) -> Op:
    exhaustive = fa.total_bits <= 8 and fw.total_bits <= 8

    def run():
        return validate.sweep_pair(
            fa, fw, out_fmt=fa, exhaustive_bits=8, samples=10_000, rng=random.Random(op_seed)
        )

    def check(res):
        problem = None
        if res.mismatches:
            problem = f"{fa}x{fw}: {res.mismatches} mismatches"
        elif exhaustive and res.cases != 1 << (fa.total_bits + fw.total_bits):
            problem = f"{fa}x{fw}: exhaustive sweep ran {res.cases} cases"
        elif not exhaustive and res.cases < 10_000:
            problem = f"{fa}x{fw}: sampled sweep ran {res.cases} < 10^4 cases"
        blob = f"{res.fmt_a}x{res.fmt_w}:{res.cases}:{res.mismatches};".encode()
        return res.cases, problem, blob

    return Op(run, check)


# --------------------------------------------------------------------------
# dse: cli.cmd_run over one (machine, model) with the 13 default pairs
# --------------------------------------------------------------------------

# Each round holds the shipped models and one seeded variant per shipped
# model. A variant's dimensions are drawn from the range the shipped models
# span (num_layers stratified over it), so its share of repeated points is
# theirs: every layer of a model repeats the same 6 x 13 points.
DSE_CHECKED_POINTS = 2       # run.csv points re-simulated directly per op
ARCHS = ("flexible", "tensorcore", "bitfusion")


@dataclass
class _DseCtx:
    machines: dict
    models: dict
    table: object


def _dse_setup():
    machines = {name: archsim.load_machine(name) for name in archsim.builtin_machines()}
    models = {name: workloads.load_model(name) for name in workloads.builtin_models()}
    return _DseCtx(machines, models, cost.load_energy_table("default_synthetic"))


def _dse_round(ctx: _DseCtx, seed, index):
    rng = _rng("dse", seed, index)
    presets = [ctx.models[name] for name in sorted(ctx.models)]
    layers = [p.num_layers for p in presets]
    d_model = [p.d_model for p in presets]
    ff_ratio = [p.d_ff / p.d_model for p in presets]
    variants = []
    for num_layers in stratified(rng, min(layers), max(layers) + 1, len(presets)):
        dm = 128 * rng.randint(min(d_model) // 128, max(d_model) // 128)
        variants.append(
            workloads.ModelSpec(
                name=f"var{rng.randrange(16**8):08x}",
                seq_len=rng.choice([p.seq_len for p in presets]),
                num_layers=int(num_layers),
                d_model=dm,
                d_ff=64 * round(dm * rng.uniform(min(ff_ratio), max(ff_ratio)) / 64),
            )
        )
    # the machines take turns in a seeded order, among the shipped models
    # and again among the variants
    ops = []
    for specs in (presets, variants):
        machines = sorted(ctx.machines)
        rng.shuffle(machines)
        ops += [_dse_op(ctx, machines[i % len(machines)], spec, rng.randrange(2**32))
                for i, spec in enumerate(specs)]
    rng.shuffle(ops)
    return ops


def _dse_op(ctx: _DseCtx, machine: str, spec, op_seed: int) -> Op:
    if spec.name in ctx.models:
        model_arg = spec.name
    else:
        model_arg = f"{spec.name}.json"
        with open(model_arg, "w") as fh:
            json.dump({"name": spec.name, "seq_len": spec.seq_len, "num_layers": spec.num_layers,
                       "d_model": spec.d_model, "d_ff": spec.d_ff}, fh)
    out_dir = f"run-{op_seed:08x}"
    pairs = list(workloads.DEFAULT_SWEEP_PAIRS)
    manifest = cli.RunManifest(machine=machine, models=[model_arg], pairs=pairs,
                               dataflow="best", out_dir=out_dir, jobs=1)

    def run():
        cli.cmd_run(manifest, stdout=io.StringIO())
        return os.path.join(out_dir, "run.csv")

    def check(path):
        keys = [(f"L{layer:02d}.{cls}", pair) for layer in range(spec.num_layers)
                for cls in workloads.LAYER_CLASSES for pair in _pair_labels(pairs)]
        sample = random.Random(op_seed).sample(keys, DSE_CHECKED_POINTS)
        problem, blob, picked = _read_run_csv(path, spec.name, set(keys), set(sample))
        if problem is None:
            problem = _recheck_points(ctx, machine, spec, picked)
        os.remove(path)
        os.rmdir(out_dir)
        if model_arg.endswith(".json"):
            os.remove(model_arg)
        return len(keys), problem, blob

    return Op(run, check)


def _pair_labels(pairs):
    return [":".join(str(parse_format(t)) for t in pair.split(":")) for pair in pairs]


def _read_run_csv(path, model_name, keys, sample):
    """Stream run.csv: schema line, header, then exactly one row per
    architecture for every expected point. Keeps the rows of the sampled
    points only, so the check adds little to the process's peak memory."""
    digest = hashlib.sha256()
    archs_of = {}
    picked = {}
    with open(path, "rb") as fh:
        schema = fh.readline()
        header = fh.readline()
        digest.update(schema + header)
        if not schema.decode().startswith(f"# {cli.SCHEMA_VERSION} "):
            return "run.csv lacks the schema line", digest.digest(), None
        columns = header.decode().rstrip("\n").split(",")
        if columns != list(cli.RUN_COLUMNS):
            return "run.csv header differs from the schema", digest.digest(), None
        col = {c: i for i, c in enumerate(columns)}
        for line in fh:
            digest.update(line)
            f = line.decode().rstrip("\n").split(",")
            if len(f) != len(columns) or f[col["model"]] != model_name:
                return f"malformed run.csv row {line[:80]!r}", digest.digest(), None
            key = (f[col["layer"]], f[col["pair"]])
            archs_of.setdefault(key, []).append(f[col["arch"]])
            if key in sample:
                picked.setdefault(key, {})[f[col["arch"]]] = {c: f[i] for c, i in col.items()}
    if archs_of.keys() != keys:
        return f"run.csv holds {len(archs_of)} points, expected {len(keys)}", digest.digest(), None
    for key, archs in archs_of.items():
        if sorted(archs) != sorted(ARCHS):
            return f"point {key} has rows {sorted(archs)}", digest.digest(), None
    return None, digest.digest(), picked


def _recheck_points(ctx: _DseCtx, machine_name, spec, picked) -> str | None:
    """Re-simulate the sampled points directly and compare their rows."""
    acc = ctx.machines[machine_name]
    for (layer, pair), rows in sorted(picked.items()):
        fa, fw = (parse_format(t) for t in pair.split(":"))
        m, n, k = workloads.layer_gemm_dims(spec, layer.split(".", 1)[1])
        g = archsim.GemmWorkload(m, n, k, fa, fw, fa, f"{spec.name}.{layer}")
        reports = (
            archsim.best_dataflow(g, acc),
            archsim.simulate_baseline(g, acc, archsim.TENSOR_CORE),
            archsim.simulate_baseline(g, acc, archsim.BIT_FUSION),
        )
        for arch, rep in zip(ARCHS, reports):
            joules, _ = cost.energy(rep, ctx.table)
            want = {
                "dataflow": rep.dataflow, "m": str(m), "n": str(n), "k": str(k),
                "cycles": str(rep.cycles), "dram_bits_read": str(rep.dram_bits_read),
                "dram_bits_written": str(rep.dram_bits_written), "noc_bits": str(rep.noc_bits),
                "energy_j": f"{joules:.9g}",
            }
            for name, value in want.items():
                if rows[arch][name] != value:
                    return f"{spec.name} {layer} {pair} {arch}: {name} {rows[arch][name]} != direct {value}"
    return None


# --------------------------------------------------------------------------
# functional_gemm: one datapath.pe_mac_tile on packed operands
# --------------------------------------------------------------------------

GEMM_PAIRS = tuple(workloads.DEFAULT_SWEEP_PAIRS) + ("int4:int4", "int8:int3")
# one tile shape per op of a round (2 ops per pair)
GEMM_SHAPES = tuple((m, n, k) for m in (1, 2, 3, 4, 5) for n in (1, 2, 4) for k in (4, 12))
MX_SCALE = parse_format("e8m0")  # power-of-two block scales, word = exponent field


def _gemm_setup():
    bundles = {}
    for pair in GEMM_PAIRS:
        fa, fw = (parse_format(t) for t in pair.split(":"))
        out = parse_format("int16" if fa.kind is Kind.INT else "e5m10")
        bundles[pair] = control.compile_bundle(fa, fw, out)
    return bundles


def _random_word(rng, fmt: FormatSpec, exp_field: int | None) -> int:
    if exp_field is None:
        return rng.randrange(1 << fmt.total_bits)
    sign = rng.randrange(2) << (fmt.exp_bits + fmt.man_bits)
    return sign | exp_field << fmt.man_bits | rng.randrange(1 << fmt.man_bits)


def _gemm_round(bundles, seed, index):
    rng = _rng("functional_gemm", seed, index)
    # a seeded order of the shapes, rotated by one slot per round: every 30
    # rounds each (pair, tile kind) slot gets every shape once, so a run's
    # cost does not hinge on which pair drew the large shapes
    shapes = list(GEMM_SHAPES)
    _rng("functional_gemm", seed).shuffle(shapes)
    slot = index
    ops = []
    for pair in GEMM_PAIRS:
        bundle = bundles[pair]
        for shared in (True, False):
            m, n, k = shapes[slot % len(shapes)]
            slot += 1
            fa, fw = bundle.fmt_a, bundle.fmt_w
            is_float = fa.kind is Kind.FLOAT
            # shared: one exponent per operand tile, so every product of an
            # output aligns with delta 0 and the result must be exact (C5)
            ea = rng.randrange(1, fa.exp_max + 1) if shared and is_float else None
            ew = rng.randrange(1, fw.exp_max + 1) if shared and is_float else None
            aw = [_random_word(rng, fa, ea) for _ in range(m * k)]
            ww = [_random_word(rng, fw, ew) for _ in range(k * n)]
            mx = None
            if is_float and rng.random() < 0.5:
                mx = tuple(
                    codec.decode(MX_SCALE.bias_value + rng.randrange(-4, 5), MX_SCALE)
                    for _ in range(2)
                )
            ops.append(_gemm_op(bundle, m, n, k, aw, ww, mx, exact=shared or not is_float))
    rng.shuffle(ops)
    return ops


def _gemm_op(bundle, m, n, k, aw, ww, mx, exact: bool) -> Op:
    fa, fw, out = bundle.fmt_a, bundle.fmt_w, bundle.out_fmt
    ca, cw, co = (_container(f.total_bits) for f in (fa, fw, out))

    def run():
        a_tile = bitpack.pack(bitpack.PaddedStream.from_elements(aw, fa, ca))
        w_tile = bitpack.pack(bitpack.PaddedStream.from_elements(ww, fw, cw))
        tile, stats = datapath.pe_mac_tile(a_tile, w_tile, m, n, k, bundle, out, mx)
        return bitpack.unpack(tile, co).words, stats

    def check(result):
        host, stats = result
        got = [w >> (co - out.total_bits) for w in host]
        problem = _gemm_problem(bundle, m, n, k, aw, ww, mx, exact, got, stats)
        blob = struct.pack(f"<{len(got)}QII", *got, stats.precision_loss_events, stats.saturations)
        return m * n * k, problem, blob

    return Op(run, check)


def _gemm_problem(bundle, m, n, k, aw, ww, mx, exact, got, stats) -> str | None:
    """Compare a tile against the exact reference truncation: bit-exact for
    exact tiles, within 1 ulp for tiles with no precision-loss event."""
    fa, fw, out = bundle.fmt_a, bundle.fmt_w, bundle.out_fmt
    if len(got) != m * n:
        return f"{len(got)} outputs for a {m}x{n} tile"
    if not exact and stats.precision_loss_events:
        return None
    scale = codec.ExactNumber(0, 1, 0)
    if mx is not None:
        scale = mx[0].to_exact().mul(mx[1].to_exact())
    for i in range(m):
        for j in range(n):
            acc = codec.ExactNumber.zero()
            for kk in range(k):
                a = codec.decode(aw[i * k + kk], fa).to_exact()
                w = codec.decode(ww[kk * n + j], fw).to_exact()
                acc = acc.add(a.mul(w))
            # compare words: a value of exactly 2^-bias encodes to the all-zero
            # word, which reads back as zero
            want = codec.decode(codec.encode(acc.mul(scale), out).word(), out)
            g = got[i * n + j]
            if exact and g != want.word():
                return f"{fa}x{fw} {m}x{n}x{k}: out[{i},{j}] {g:#x} != exact {want.word():#x}"
            diff = abs(codec.decode(g, out).to_fraction() - want.to_fraction())
            if diff > _ulp(want):
                return f"{fa}x{fw} {m}x{n}x{k}: loss-free out[{i},{j}] off by {diff}"
    return None


def _ulp(v) -> Fraction:
    f = v.fmt
    if f.kind is Kind.INT:
        return Fraction(1)
    if v.is_zero:
        return Fraction(2) ** (1 - f.bias_value - f.man_bits)
    return Fraction(2) ** (v.exp_field - f.bias_value - f.man_bits)


# --------------------------------------------------------------------------
# pack_stream: host stream -> pack -> FXBP file -> read -> unpack
# --------------------------------------------------------------------------

PACK_COMBOS = tuple((w, c) for w in range(3, 17) for c in (8, 16) if c >= w)
PACK_LENGTHS = (256, 768)


def _pack_setup():
    return None


def _pack_round(_, seed, index):
    rng = _rng("pack_stream", seed, index)
    ops = []
    combos = [(w, c, chunked) for w, c in PACK_COMBOS for chunked in (False, True)]
    for (width, container, chunked), n in zip(combos, stratified(rng, *PACK_LENGTHS, len(combos))):
        e = rng.randint(1, min(8, width - 1))
        fmt = FormatSpec(Kind.FLOAT, exp_bits=e, man_bits=width - 1 - e)
        words = [rng.randrange(1 << width) for _ in range(int(n))]
        cuts = sorted(rng.sample(range(1, len(words)), rng.randint(1, 3))) if chunked else []
        path = f"s{rng.randrange(16**8):08x}.fxbp"
        ops.append(_pack_op(fmt, container, words, rng.randint(1, 63), cuts, path))
    rng.shuffle(ops)
    return ops


def _pack_op(fmt: FormatSpec, container: int, words, start: int, cuts, path) -> Op:
    bounds = [0, *cuts, len(words)]

    def run():
        chunks = [bitpack.PaddedStream.from_elements(words[a:b], fmt, container)
                  for a, b in zip(bounds, bounds[1:])]
        buf = bitpack.pack(chunks[0], start)
        for chunk in chunks[1:]:
            buf = bitpack.pack_into(buf, chunk)
        bitpack.write_packed_file(path, buf)
        return bitpack.unpack(bitpack.read_packed_file(path), container).words

    def check(host):
        with open(path, "rb") as fh:
            raw = fh.read()
        os.remove(path)
        pad = container - fmt.total_bits
        payload = -(-(start + len(words) * fmt.total_bits) // 8)
        problem = None
        if host != [w << pad for w in words]:
            problem = f"{fmt}/{container}: round trip differs"
        elif len(raw) != FXBP_HEADER.size + payload:
            problem = f"{fmt}/{container}: FXBP file is {len(raw)} bytes, expected {FXBP_HEADER.size + payload}"
        else:
            magic, _, _, _, _, count, start_bit = FXBP_HEADER.unpack_from(raw)
            if (magic, count, start_bit) != (b"FXBP", len(words), start):
                problem = f"{fmt}/{container}: FXBP header {(magic, count, start_bit)}"
        return len(words), problem, raw

    return Op(run, check)


SUITES = {
    s.name: s
    for s in (
        Suite("verify", "verify cases", _verify_setup, _verify_round, 15),
        Suite("dse", "dse points", _dse_setup, _dse_round, 6),
        Suite("functional_gemm", "MACs", _gemm_setup, _gemm_round, 40),
        Suite("pack_stream", "stream elements", _pack_setup, _pack_round, 100),
    )
}
