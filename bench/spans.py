"""Per-module spans and counters for the traced benchmark run.

The tracer wraps public functions of the `anyprec` modules from outside the
package: every module attribute bound to a traced function is replaced by a
wrapper, so a name one module imported from another (`validate` binds its
own `run_cross_products`) is traced too. Spans are aggregated in memory per
name as calls, inclusive seconds and self seconds (duration minus the time
covered by child spans). The tracer records only inside the ops of a
fixed set of rounds (run.py), so every count, and every simulated
statistic, depends on the seed alone and repeats exactly; the seconds
change only when the work per op costs more or less. Everything runs on
one thread, so no span waits on a queue or a lock and the trace carries no
wait time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

WAIT_NOTE = (
    "single-threaded and nothing queues or retries, so spans carry no wait time; "
    "self_s is a span's duration minus the time its child spans cover"
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Aggregated spans plus counters, recorded only while `active`."""

    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._bundle_keys = set()
        self._op_points = set()

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, on_call=None, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args, kwargs)
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[1]
            if on_return is not None:
                on_return(tracer, result, args, kwargs)
            return result

        return functools.wraps(fn)(traced)

    def end_op(self):
        """Close the per-op bookkeeping (distinct simulated points)."""
        self.counts["archsim.distinct_points"] += len(self._op_points)
        self._op_points.clear()


# -- hooks: counters recorded at the same boundaries as the spans -----------


def _on_sweep_pair(tr, result, args, kwargs):
    tr.counts["validate.cases"] += result.cases
    tr.counts["validate.mismatches"] += result.mismatches


def _on_compile_bundle(tr, args, kwargs):
    key = tuple(str(_arg(args, kwargs, i, n)) for i, n in enumerate(("fmt_a", "fmt_w", "out_fmt")))
    tr._bundle_keys.add(key)


def _on_run_cross_products(tr, args, kwargs):
    shape = getattr(_arg(args, kwargs, 1, "words_a"), "shape", (1,))
    rows = 1
    for d in shape[:-1]:
        rows *= int(d)
    tr.counts["datapath.run_cross_products.rows"] += rows


def _on_pe_mac_tile(tr, args, kwargs):
    m, n, k = (_arg(args, kwargs, i, name) for i, name in ((2, "m"), (3, "n"), (4, "k")))
    tr.counts["datapath.pe_mac_tile.macs"] += m * n * k


def _on_pe_mac_tile_return(tr, result, args, kwargs):
    stats = result[1]
    tr.counts["datapath.precision_loss_events"] += stats.precision_loss_events
    tr.counts["datapath.saturations"] += stats.saturations


def _on_pack(tr, args, kwargs):
    tr.counts["bitpack.pack.elems"] += len(_arg(args, kwargs, 0, "stream").words)


def _on_unpack(tr, args, kwargs):
    tr.counts["bitpack.unpack.elems"] += _arg(args, kwargs, 0, "buf").elem_count


def _on_precision_sweep(tr, result, args, kwargs):
    tr.counts["workloads.points"] += sum(len(gemms) for _, _, gemms in result)


def _point_key(args, kwargs):
    w = _arg(args, kwargs, 0, "w")
    acc = _arg(args, kwargs, 1, "acc")
    return (acc.name, w.m, w.n, w.k, str(w.fmt_a), str(w.fmt_w), str(w.fmt_o))


def _on_best_dataflow(tr, args, kwargs):
    tr._op_points.add(_point_key(args, kwargs))


def _on_best_dataflow_return(tr, rep, args, kwargs):
    tr.counts["archsim.sim_cycles.flexible"] += rep.cycles
    tr.counts["archsim.sim_dram_bits"] += rep.dram_bits_read + rep.dram_bits_written
    cycles = {k: v for k, v in rep.breakdowns["cycles"].items() if k != "reconfig"}
    tr.counts[f"archsim.bound.{max(cycles, key=cycles.get)}"] += 1


def _on_simulate_baseline_return(tr, rep, args, kwargs):
    tr.counts[f"archsim.sim_cycles.{_arg(args, kwargs, 2, 'kind')}"] += rep.cycles


def _on_energy_return(tr, result, args, kwargs):
    report = _arg(args, kwargs, 0, "report")
    if ":" not in report.machine:  # baselines are named "<machine>:<kind>"
        tr.counts["cost.energy_j.flexible"] += result[0]


def _on_cmd_run_return(tr, result, args, kwargs):
    manifest = _arg(args, kwargs, 0, "manifest")
    tr.counts["cli.csv_bytes"] += os.path.getsize(os.path.join(manifest.out_dir, "run.csv"))


# (module, qualified name, on_call, on_return)
TRACED = (
    ("validate", "sweep_pair", None, _on_sweep_pair),
    ("validate", "oracle_words", None, None),
    ("control", "compile_bundle", _on_compile_bundle, None),
    ("datapath", "run_cross_products", _on_run_cross_products, None),
    ("datapath", "load_registers", None, None),
    ("datapath", "separate", None, None),
    ("datapath", "gen_primitives", None, None),
    ("datapath", "run_reduction_tree", None, None),
    ("datapath", "add_exponents", None, None),
    ("datapath", "segmented_add", None, None),
    ("datapath", "products_to_words", None, None),
    ("datapath", "pe_mac_tile", _on_pe_mac_tile, _on_pe_mac_tile_return),
    ("codec", "encode", None, None),
    ("codec", "ExactNumber.add", None, None),
    ("bitpack", "pack", _on_pack, None),
    ("bitpack", "unpack", _on_unpack, None),
    ("bitpack", "pack_into", None, None),
    ("bitpack", "write_packed_file", None, None),
    ("bitpack", "read_packed_file", None, None),
    ("bitpack", "PackedBuffer.words", None, None),
    ("bitpack", "PackedBuffer.from_words", None, None),
    ("workloads", "precision_sweep", None, _on_precision_sweep),
    ("archsim", "simulate", None, None),
    ("archsim", "plan_tiles", None, None),
    ("archsim", "best_dataflow", _on_best_dataflow, _on_best_dataflow_return),
    ("archsim", "simulate_baseline", None, _on_simulate_baseline_return),
    ("cost", "energy", None, _on_energy_return),
    ("cli", "cmd_run", None, _on_cmd_run_return),
)

# per-layer metric -> unit; the suffix after the span name picks the aggregate
PER_LAYER = {
    "validate.sweep_pair.self_s": "s",
    "validate.oracle_words.s": "s",
    "validate.cases": "count",
    "validate.mismatches": "count",
    "control.compile_bundle.calls": "count",
    "control.compile_bundle.s": "s",
    "control.compile_bundle.distinct": "count",
    "datapath.run_cross_products.calls": "count",
    "datapath.run_cross_products.rows": "count",
    "datapath.run_cross_products.self_s": "s",
    "datapath.load_registers.s": "s",
    "datapath.separate.s": "s",
    "datapath.gen_primitives.s": "s",
    "datapath.run_reduction_tree.s": "s",
    "datapath.add_exponents.self_s": "s",
    "datapath.segmented_add.s": "s",
    "datapath.products_to_words.s": "s",
    "datapath.pe_mac_tile.self_s": "s",
    "datapath.pe_mac_tile.macs": "count",
    "datapath.precision_loss_events": "count",
    "datapath.saturations": "count",
    "codec.encode.calls": "count",
    "codec.encode.s": "s",
    "codec.ExactNumber.add.calls": "count",
    "codec.ExactNumber.add.s": "s",
    "bitpack.pack.s": "s",
    "bitpack.pack.elems": "count",
    "bitpack.unpack.s": "s",
    "bitpack.unpack.elems": "count",
    "bitpack.pack_into.s": "s",
    "bitpack.write_packed_file.s": "s",
    "bitpack.read_packed_file.s": "s",
    "bitpack.PackedBuffer.words.s": "s",
    "bitpack.PackedBuffer.from_words.s": "s",
    "workloads.precision_sweep.s": "s",
    "workloads.points": "count",
    "archsim.simulate.calls": "count",
    "archsim.simulate.self_s": "s",
    "archsim.plan_tiles.s": "s",
    "archsim.best_dataflow.self_s": "s",
    "archsim.simulate_baseline.self_s": "s",
    "archsim.distinct_points": "count",
    "archsim.sim_cycles.flexible": "cycles",
    "archsim.sim_cycles.tensorcore": "cycles",
    "archsim.sim_cycles.bitfusion": "cycles",
    "archsim.sim_dram_bits": "bits",
    "archsim.bound.compute": "count",
    "archsim.bound.dram": "count",
    "archsim.bound.noc_w": "count",
    "archsim.bound.noc_a": "count",
    "cost.energy.calls": "count",
    "cost.energy.s": "s",
    "cost.energy_j.flexible": "J",
    "cli.cmd_run.self_s": "s",
    "cli.csv_bytes": "bytes",
}

def install(tracer: Tracer) -> None:
    """Wrap every traced function in every `anyprec` module that binds it."""
    import anyprec

    mods = {name: importlib.import_module(f"anyprec.{name}") for name in
            ("validate", "control", "datapath", "codec", "bitpack", "workloads", "archsim", "cost", "cli")}
    for mod_name, qual, on_call, on_return in TRACED:
        mod = mods[mod_name]
        span = f"{mod_name}.{qual}"
        if "." in qual:  # method on a class
            cls_name, meth = qual.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(span, raw.__func__, on_call, on_return)))
            else:
                setattr(cls, meth, tracer.wrap(span, raw, on_call, on_return))
            continue
        orig = getattr(mod, qual)
        wrapped = tracer.wrap(span, orig, on_call, on_return)
        for other in [anyprec, *mods.values()]:
            for attr, val in list(vars(other).items()):
                if val is orig:
                    setattr(other, attr, wrapped)


def per_layer_values(tracer: Tracer) -> dict:
    """Every per-layer metric, 0 for layers the workload never called."""
    out = {}
    for name in PER_LAYER:
        if name == "control.compile_bundle.distinct":
            out[name] = len(tracer._bundle_keys)
            continue
        span, _, agg = name.rpartition(".")
        if agg == "calls":
            out[name] = tracer.calls.get(span, 0)
        elif agg == "s":
            out[name] = tracer.total_s.get(span, 0.0)
        elif agg == "self_s":
            out[name] = tracer.self_s.get(span, 0.0)
        else:
            out[name] = tracer.counts.get(name, 0)
    return out
