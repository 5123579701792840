"""Command-line front end: validate, run, pack, ablate.

Exit codes: 0 success, 1 validation mismatch, 2 configuration error.
`run` and `ablate` load the machine once, expand each (model, pair, layer
class) once, and simulate and format each distinct GEMM point (dims and
formats) once. The writer sorts and joins each layer class's rows once per
model, as a block of `pair,...` lines, and writes every layer of the class
as its `model,layer,` prefix joined onto that block, layers in text order.
The file is opened only after every point is simulated. `--jobs` is
accepted for compatibility but has no effect: the sweep runs on one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from operator import itemgetter

from . import archsim, bitpack, cost, validate, workloads
from .codec import parse_format
from .control import PEConfig
from .errors import AnyprecError, ConfigError, FormatError

SCHEMA_VERSION = "anyprec-csv-v1"
RUN_COLUMNS = (
    "model", "layer", "pair", "arch", "dataflow",
    "m", "n", "k",
    "cycles", "seconds", "macs", "macs_per_cycle", "pe_util",
    "dram_bits_read", "dram_bits_written", "noc_bits",
    "sram_read_bits", "sram_write_bits",
    "energy_j", "edp_js", "latency_vs_tensorcore",
)
ABLATE_COLUMNS = (
    "model", "layer", "pair", "layout", "dataflow",
    "cycles", "seconds", "dram_bits_read", "dram_bits_written",
    "noc_bits", "bound", "improvement_vs_padded", "latency_vs_tensorcore",
)


@dataclass
class RunManifest:
    machine: str
    models: list
    pairs: list
    dataflow: str = "best"
    energy_table: str = "default_synthetic"
    out_dir: str = "."
    seed: int = 0
    jobs: int = 1
    include_attention: bool = True

    def describe(self) -> str:
        models = ",".join(getattr(m, "name", m) for m in self.models)
        return (
            f"machine={self.machine} models={models} "
            f"pairs={','.join(self.pairs)} dataflow={self.dataflow} "
            f"energy={self.energy_table} seed={self.seed}"
        )


def _fmt_num(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _sweep(manifest: RunManifest, pe_cfg: PEConfig, evaluate) -> list:
    """(model, {layer class: [(pair, evaluate(g)), ...]}) for every model of
    the manifest, in manifest order, each class's pairs in sweep order.
    Every layer of a model repeats the same layer-class GEMMs, so the sweep
    is expanded on a one-layer view of the model. `evaluate` may depend
    only on the GEMM's dims and formats, so it runs once per distinct
    point. Pairs the PE `pe_cfg` cannot run are skipped like malformed
    ones."""
    done = {}
    out = []
    for model_name in manifest.models:
        model = workloads.load_model(model_name)
        by_class = {}
        for pa, pw, gemms in workloads.precision_sweep(
            replace(model, num_layers=1), manifest.pairs,
            include_attention=manifest.include_attention, pe_cfg=pe_cfg,
        ):
            pair = f"{pa}:{pw}"
            for g in gemms:
                key = (g.m, g.n, g.k, g.fmt_a, g.fmt_w, g.fmt_o)
                if key not in done:
                    done[key] = evaluate(g)
                by_class.setdefault(g.label.rpartition(".")[2], []).append((pair, done[key]))
        out.append((model, by_class))
    return out


_CSV_BUFFER = 1 << 20  # bytes of run.csv / ablate.csv buffered per write call


def _write_csv(path, head, sweep, units) -> list:
    """Write the lines `head`, then the rows of every point of `sweep`, to
    `path`; return the units' values in row order.

    `units(pair, value)` lists a point's sort units: (key, its rows after
    `model,layer,`, a value). Rows go by model name, then layer label as
    text (L10 < L100 < L11), then unit key, ties in sweep order. Each
    layer class's units are sorted and joined once per model into a block
    of `pair,...` lines, and every layer of that class gets its
    `model,layer,` prefix joined onto the block."""
    by_name = {}
    for model, by_class in sweep:
        by_name.setdefault(model.name, []).append((model, by_class))
    layout = []  # (`model,layer,` prefix, rows) per layer, in row order
    values = []
    for name in sorted(by_name):
        models = by_name[name]
        skip = len(name) + 1
        # layer column -> (its class, the models of this name that have the layer)
        layers = {}
        for i, (model, by_class) in enumerate(models):
            for cls in by_class:
                for layer in range(model.num_layers):
                    label = workloads.layer_label(model, layer, cls)[skip:]
                    layers.setdefault(label, (cls, []))[1].append(i)
        blocks = {}
        for layer in sorted(layers):
            cls, members = layers[layer]
            key = (cls, *members)
            if key not in blocks:
                points = (p for i in members for p in models[i][1][cls])
                found = sorted(
                    (u for pair, value in points for u in units(pair, value)), key=itemgetter(0)
                )
                blocks[key] = (
                    [row for _, rows, _ in found for row in rows],
                    [value for _, _, value in found],
                )
            rows, vals = blocks[key]
            layout.append((f"{name},{layer},", rows))
            values.extend(vals)
    with open(path, "w", newline="\n", buffering=_CSV_BUFFER) as fh:
        fh.write("\n".join(head) + "\n")
        for prefix, rows in layout:
            fh.writelines((prefix, ("\n" + prefix).join(rows), "\n"))
    return values


def _out_path(manifest: RunManifest, name: str) -> str:
    out_dir = os.environ.get("ANYPREC_OUTPUT_DIR", manifest.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _simulate_point(machine, pe_cfg, g, dataflow, table):
    """The run.csv row tails (everything after model,layer,pair) of one
    point, one per architecture, and the flexible design's seconds and
    joules."""
    if dataflow == "best":
        flex = archsim.best_dataflow(g, machine, pe_cfg)
    else:
        flex = archsim.simulate(g, machine, dataflow, pe_cfg)
    tc = archsim.simulate_baseline(g, machine, archsim.TENSOR_CORE, pe_cfg)
    bf = archsim.simulate_baseline(g, machine, archsim.BIT_FUSION, pe_cfg)
    tails = []
    for arch, rep in (("flexible", flex), ("tensorcore", tc), ("bitfusion", bf)):
        total, _ = cost.energy(rep, table)
        tails.append(
            ",".join(
                [
                    arch, rep.dataflow,
                    str(g.m), str(g.n), str(g.k),
                    str(rep.cycles), _fmt_num(rep.seconds),
                    str(rep.macs), _fmt_num(rep.macs_per_cycle),
                    _fmt_num(rep.pe_util),
                    str(rep.dram_bits_read), str(rep.dram_bits_written),
                    str(rep.noc_bits), str(rep.sram_read_bits),
                    str(rep.sram_write_bits),
                    _fmt_num(total), _fmt_num(cost.edp(rep.seconds, total)),
                    _fmt_num(rep.cycles / tc.cycles),
                ]
            )
        )
    return tails, flex.seconds, flex.energy_j


def _ablate_point(machine, pe_cfg, g, dataflow):
    """The ablate.csv row tails (the fields after model,layer,pair) of one
    point: packed, then padded."""
    packed, padded = archsim.packing_ablation(g, machine, dataflow, pe_cfg)
    tc = archsim.simulate_baseline(g, machine, archsim.TENSOR_CORE, pe_cfg)
    imp = 1 - packed.cycles / padded.cycles
    tails = []
    for layout, rep in (("packed", packed), ("padded", padded)):
        bound = max(
            rep.breakdowns["cycles"],
            key=lambda k: rep.breakdowns["cycles"][k],
        )
        tails.append(
            [
                layout, rep.dataflow, str(rep.cycles),
                _fmt_num(rep.seconds), str(rep.dram_bits_read),
                str(rep.dram_bits_written), str(rep.noc_bits),
                bound, _fmt_num(imp if layout == "packed" else 0.0),
                _fmt_num(rep.cycles / tc.cycles),
            ]
        )
    return tails


def cmd_run(manifest: RunManifest, stdout=None) -> int:
    stdout = stdout or sys.stdout
    machine = archsim.load_machine(manifest.machine)
    pe_cfg = PEConfig(reg_width=machine.reg_width)
    table = cost.load_energy_table(manifest.energy_table)
    sweep = _sweep(
        manifest, pe_cfg, lambda g: _simulate_point(machine, pe_cfg, g, manifest.dataflow, table)
    )
    path = _out_path(manifest, "run.csv")
    head = (f"# {SCHEMA_VERSION} {manifest.describe()}", ",".join(RUN_COLUMNS))
    # one unit per point: its three rows stay together, tied points in sweep order
    flex = _write_csv(
        path, head, sweep,
        lambda pair, point: [(pair, [f"{pair},{tail}" for tail in point[0]], point[1:])],
    )
    total_s = total_e = 0
    for flex_s, flex_e in flex:  # in row order, so the sums repeat bit for bit
        total_s += flex_s
        total_e += flex_e

    if flex:
        print(
            f"{len(flex)} points -> {path}\n"
            f"flexible total: {total_s:.6g} s, {total_e:.6g} J",
            file=stdout,
        )
    else:
        print(f"0 points -> {path}", file=stdout)
    return 0


def cmd_ablate(manifest: RunManifest, stdout=None) -> int:
    stdout = stdout or sys.stdout
    machine = archsim.load_machine(manifest.machine)
    pe_cfg = PEConfig(reg_width=machine.reg_width)
    df = manifest.dataflow if manifest.dataflow != "best" else archsim.WS
    sweep = _sweep(manifest, pe_cfg, lambda g: _ablate_point(machine, pe_cfg, g, df))
    path = _out_path(manifest, "ablate.csv")
    head = (f"# {SCHEMA_VERSION} ablation {manifest.describe()}", ",".join(ABLATE_COLUMNS))
    # one unit per row, ordered by its fields as a list
    rows = _write_csv(
        path, head, sweep,
        lambda pair, tails: [([pair, *tail], [",".join([pair, *tail])], None) for tail in tails],
    )
    print(f"{len(rows)} rows -> {path}", file=stdout)
    return 0


def cmd_validate(scope: str, max_bits: int, samples: int, seed: int, stdout=None) -> int:
    stdout = stdout or sys.stdout
    failures = 0

    def report(name, mismatches, cases, detail=None):
        nonlocal failures
        status = "ok" if mismatches == 0 else "FAIL"
        print(f"{name}: {mismatches} mismatches / {cases} cases [{status}]", file=stdout)
        if mismatches:
            failures += 1
            if detail:
                print(detail, file=stdout)

    if scope in ("codec", "all"):
        from .codec import decode, encode
        cases = mism = 0
        for fmt in validate.float_formats(min(max_bits, 12)):
            for word in range(1 << fmt.total_bits):
                cases += 1
                if encode(decode(word, fmt).to_exact(), fmt).word() != word:
                    mism += 1
        report("codec round-trip", mism, cases)

    if scope in ("pack", "all"):
        import random as _random
        rng = _random.Random(seed)
        fp6 = parse_format("e2m3")
        cases = mism = 0
        idx = [bitpack.packed_index(i, 8, 6) for i in range(8, 14)]
        cases += 1
        if idx != list(range(6, 12)):
            mism += 1
        for _ in range(1000):
            n = rng.randrange(0, 64)
            words = [rng.randrange(64) for _ in range(n)]
            stream = bitpack.PaddedStream.from_elements(words, fp6, 8)
            buf = bitpack.pack(stream)
            cases += 1
            if bitpack.unpack(buf, 8).words != stream.words:
                mism += 1
        report("packing round-trip", mism, cases)

    if scope in ("pe", "all"):
        checked = validate.oracle_self_check(500, seed)
        report("oracle self-check", 0, checked)
        detail = None
        cases = mism = 0
        for r in validate.sweep_all_pairs(
            max_bits=max_bits, exhaustive_bits=min(8, max_bits), samples=samples, seed=seed
        ):
            cases += r.cases
            mism += r.mismatches
            if r.first_failure and detail is None:
                detail = r.first_failure
        report("datapath vs reference", mism, cases, detail)

    return 1 if failures else 0


_WRITE_CHUNK = 1 << 16  # container words per write in `pack --unpack`


def cmd_pack(args) -> int:
    fmt = parse_format(args.fmt)
    if args.container % 8:
        raise FormatError("file packing needs a byte-aligned container")
    cbytes = args.container // 8
    try:
        if args.unpack:
            buf = bitpack.read_packed_file(args.input)
            stream = bitpack.unpack(buf, args.container)
            words = stream.words
            with open(args.output, "wb") as fh:
                # one bytes object per word for the whole stream would cost
                # about 120 bytes of memory per word, so join a chunk at a time
                for i in range(0, len(words), _WRITE_CHUNK):
                    chunk = words[i : i + _WRITE_CHUNK]
                    fh.write(b"".join([w.to_bytes(cbytes, "big") for w in chunk]))
        else:
            with open(args.input, "rb") as fh:
                raw = fh.read()
            if len(raw) % cbytes:
                raise FormatError(f"input not a multiple of {cbytes}-byte containers")
            words = [
                int.from_bytes(raw[i : i + cbytes], "big") for i in range(0, len(raw), cbytes)
            ]
            stream = bitpack.PaddedStream(words, args.container, fmt)
            buf = bitpack.pack(stream, args.start_idx)
            bitpack.write_packed_file(args.output, buf)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"{buf.elem_count} elements -> {args.output}")
    return 0


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an int in [lo, hi] (no upper limit when hi is None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="anyprec",
        description="Flexible-precision accelerator functional model and cost model",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="datapath-vs-reference sweeps")
    v.add_argument("--scope", choices=["codec", "pe", "pack", "all"], default="all")
    v.add_argument("--max-bits", type=_int_in(3, 12), default=12)
    v.add_argument("--samples", type=_int_in(1), default=10_000)
    v.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("run", help="simulate models across machines and precisions")
    r.add_argument("--machine", default="mobile_a")
    r.add_argument("--models", nargs="+", default=["bert_base"])
    r.add_argument("--pairs", default=",".join(workloads.DEFAULT_SWEEP_PAIRS))
    r.add_argument("--dataflow", choices=["ws", "os", "best"], default="best")
    r.add_argument("--energy-table", default="default_synthetic")
    r.add_argument("--out", default=".")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--jobs", type=_int_in(1), default=1, help="accepted; has no effect")
    r.add_argument("--no-attention", action="store_true")

    a = sub.add_parser("ablate", help="packed vs padded layout comparison")
    a.add_argument("--machine", default="mobile_a")
    a.add_argument("--models", nargs="+", default=["bert_base"])
    a.add_argument("--pairs", default="e2m3:e2m3")
    a.add_argument("--dataflow", choices=["ws", "os"], default="ws")
    a.add_argument("--out", default=".")
    a.add_argument("--no-attention", action="store_true")

    k = sub.add_parser("pack", help="pack or unpack a container-padded file")
    k.add_argument("input")
    k.add_argument("output")
    k.add_argument("--fmt", required=True)
    k.add_argument("--container", type=_int_in(1), default=8)
    k.add_argument("--start-idx", type=_int_in(0, bitpack.MAX_START_BIT), default=0)
    k.add_argument("--unpack", action="store_true")
    return p


def _manifest_from_args(args) -> RunManifest:
    pairs = [s for s in args.pairs.split(",") if s]
    if not all(map(str.isprintable, pairs)):  # a line break would split run.csv's comment row
        raise ConfigError(f"--pairs {args.pairs!r} holds a control character")
    return RunManifest(
        machine=args.machine,
        models=args.models,
        pairs=pairs,
        dataflow=args.dataflow,
        energy_table=getattr(args, "energy_table", "default_synthetic"),
        out_dir=args.out,
        seed=getattr(args, "seed", 0),
        jobs=getattr(args, "jobs", 1),
        include_attention=not getattr(args, "no_attention", False),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.scope, args.max_bits, args.samples, args.seed)
        if args.command == "run":
            return cmd_run(_manifest_from_args(args))
        if args.command == "ablate":
            return cmd_ablate(_manifest_from_args(args))
        if args.command == "pack":
            return cmd_pack(args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnyprecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
