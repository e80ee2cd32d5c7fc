"""Span tracing for the traced benchmark runs, and the per-layer
metrics derived from the spans.

The tracer lives entirely in the benchmark: it wraps the boundary
functions of each quadclass module and rebinds every module-level name
that refers to them (so ``density.class_group`` is traced as well as
``forms.class_group``).  A span records its name, start, end, parent
span and the index of the CLI call it belongs to.  ``forms.compose``
runs about a million times per scan, so it is only counted.  Spans are
held in memory and written out once, when the run ends.

Self time of a span is its duration minus the durations of its direct
child spans; a layer's self time is the sum over its spans.  The CLI
entry point is the root span of every call, so the layer self times of
a traced run add up to its wall time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from importlib import import_module

LAYERS = (
    "cli",
    "ntheory",
    "forms",
    "sweep",
    "abelian",
    "density",
    "cohen_lenstra",
    "finitefield",
    "dihedral",
)

# Boundary functions that get a span, per module.
SPANNED = {
    "cli": ("main", "_emit"),
    "ntheory": ("prime_mask", "primes_up_to", "squarefree_mask", "smallest_prime_factor"),
    "forms": (
        "fundamental_mask",
        "enumerate_reduced",
        "class_group",
        "ClassGroupCache.get",
        "ClassGroupCache.save",
    ),
    "sweep": ("sweep_counts", "count_reduced_forms", "batch_class_numbers"),
    "abelian": ("structure_from_forms", "is_p_suitable"),
    "density": (
        "class_order_census",
        "suitable_divisor_density",
        "suitable_divisor_mask",
        "is_suitable_fundamental_disc",
        "_suitability_screen",
    ),
    "cohen_lenstra": ("empirical_cl_comparison",),
    "finitefield": ("make_field", "element_of_order", "dihedral_trace_set", "trace_field_degree"),
    "dihedral": ("find_witness", "make_character", "eigen_coeff", "reduce_coefficient"),
}

# What a span keeps from its call's result, for counters that need it.
NOTES = {
    "sweep.sweep_counts": lambda counts: [int(counts.sum()), int(counts.nbytes)],
    "finitefield.make_field": lambda ctx: [ctx.p, ctx.m],
    "density._suitability_screen": lambda verdict: verdict is not None,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.query = -1
        self._stack: list[int] = []
        self._compose = [0]

    def install(self):
        """Wrap the boundary functions and rebind every reference to them
        in the loaded quadclass modules."""
        replaced = {}
        for layer, names in SPANNED.items():
            module = import_module(f"quadclass.{layer}")
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(module, cls)
                fn = getattr(owner, attr)
                wrapper = self._spanned(f"{layer}.{name}", fn)
                setattr(owner, attr, wrapper)
                replaced[id(fn)] = (fn, wrapper)
        forms = import_module("quadclass.forms")
        replaced[id(forms.compose)] = (forms.compose, self._counted(forms.compose))
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "quadclass":
                continue
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def _spanned(self, name, fn):
        spans, stack, compose = self.spans, self._stack, self._compose
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            c0 = compose[0]
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = [name, t0, t1, parent, self.query, compose[0] - c0, None]
            if note is not None:
                spans[sid][6] = note(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn):
        compose = self._compose

        def wrapper(*args, **kwargs):
            compose[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "compose_calls": self._compose[0]}, fh)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, from its span dump."""
    spans = doc["spans"]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        layer_self[s[0].split(".")[0]] += dur[i] - child[i]

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def count(name):
        return len(by_name[name])

    sweeps = [spans[i][6] for i in by_name["sweep.sweep_counts"]]
    structures = by_name["abelian.structure_from_forms"]
    missed = {spans[i][3] for i in by_name["forms.class_group"]}
    gets = by_name["forms.ClassGroupCache.get"]
    misses = sum(1 for i in gets if i in missed)
    screens = [spans[i][6] for i in by_name["density._suitability_screen"]]
    out = {
        "sweep.calls": count("sweep.sweep_counts"),
        "sweep.busy_s": total("sweep.sweep_counts"),
        "sweep.forms_per_s": _ratio(sum(n for n, _ in sweeps), total("sweep.sweep_counts")),
        "sweep.bytes_computed": sum(b for _, b in sweeps),
        "forms.fundamental_mask_s": total("forms.fundamental_mask"),
        "forms.class_group_calls": count("forms.class_group"),
        "forms.enumerate_reduced_s": total("forms.enumerate_reduced"),
        "forms.compose_calls": doc["compose_calls"],
        "forms.cache_hits": len(gets) - misses,
        "forms.cache_misses": misses,
        "forms.cache_hit_ratio": _ratio(len(gets) - misses, len(gets)),
        "abelian.structure_calls": len(structures),
        "abelian.structure_s": total("abelian.structure_from_forms"),
        "abelian.compose_per_structure": _ratio(
            sum(spans[i][5] for i in structures), len(structures)
        ),
        "density.discs_classified": len(screens),
        "density.screen_settled_ratio": _ratio(sum(screens), len(screens)),
        "density.mask_self_s": sum(
            dur[i] - child[i] for i in by_name["density.suitable_divisor_mask"]
        ),
        "finitefield.make_field_calls": count("finitefield.make_field"),
        "finitefield.fields_built": len(
            {tuple(spans[i][6]) for i in by_name["finitefield.make_field"]}
        ),
        "finitefield.make_field_s": total("finitefield.make_field"),
        "finitefield.element_of_order_s": total("finitefield.element_of_order"),
        "finitefield.trace_set_s": total("finitefield.dihedral_trace_set"),
        "dihedral.find_witness_s": total("dihedral.find_witness"),
        "dihedral.make_character_s": total("dihedral.make_character"),
        "dihedral.eigen_coeff_calls": count("dihedral.eigen_coeff"),
        "cohen_lenstra.compare_s": total("cohen_lenstra.empirical_cl_comparison"),
        "cli.emit_s": total("cli._emit"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
