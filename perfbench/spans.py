"""Per-layer spans and counters, recorded from outside the library.

``Tracer`` rebinds every module attribute (and class attribute) that names one
of the wrapped public functions, so calls made through a second binding (for
example ``dessinkit.cli.regular_descriptor`` besides
``dessinkit.dessins.regular_descriptor``) are recorded too.  Each span is
``[name, start, end, parent index, op id]``; spans stay in memory and are
reduced to metrics when the traced run ends.  Leaving the ``with`` block
restores every binding.
"""

import functools
import importlib
import time
from collections import defaultdict
from fractions import Fraction

MODULES = (
    "dessinkit",
    "dessinkit.perms",
    "dessinkit.words",
    "dessinkit.dessins",
    "dessinkit.belyi",
    "dessinkit.tower",
    "dessinkit.models",
    "dessinkit.cli",
)

# span name -> (defining module, attribute paths); a dotted path is a method
SPANS = {
    "perms.order": ("dessinkit.perms", ["PermGroup.order"]),
    "perms.order_exceeds": ("dessinkit.perms", ["PermGroup.order_exceeds"]),
    "perms.is_member": ("dessinkit.perms", ["PermGroup.is_member"]),
    "words.parse": ("dessinkit.words", ["parse_word"]),
    "words.evaluate": ("dessinkit.words", ["evaluate_word"]),
    "dessins.load": ("dessinkit.dessins", ["load_dessin"]),
    "dessins.descriptor": ("dessinkit.dessins", ["regular_descriptor"]),
    "dessins.iso": ("dessinkit.dessins", ["dessins_isomorphic"]),
    "dessins.reg_iso": ("dessinkit.dessins", ["regular_closures_isomorphic"]),
    "dessins.witness": ("dessinkit.dessins", ["distinguish_by_witness"]),
    "belyi.reduce": ("dessinkit.belyi", ["belyi_reduce"]),
    "belyi.verify": ("dessinkit.belyi", ["verify_reduction"]),
    "belyi.stage_eval": ("dessinkit.belyi", ["BmnStage.eval_extended"]),
    "belyi.crit": ("dessinkit.belyi", ["finite_critical_values"]),
    "belyi.rational_roots": ("dessinkit.belyi", ["rational_roots"]),
    "belyi.sturm": ("dessinkit.belyi", ["sturm_count"]),
    "belyi.bmn": ("dessinkit.belyi", ["bmn"]),
    "tower.mul": ("dessinkit.tower", ["TowerElement.__mul__"]),
    "tower.inverse": ("dessinkit.tower", ["TowerElement.inverse"]),
    "tower.galois": ("dessinkit.tower", ["galois_apply"]),
    "tower.jinv": ("dessinkit.tower", ["j_invariant_of_triple"]),
    "tower.distinct": ("dessinkit.tower", ["conjugate_triples_distinct"]),
    "models.gallery": ("dessinkit.models", ["gallery_dessin"]),
    "models.local_model": ("dessinkit.models", ["local_model_24", "local_model_8p"]),
    "models.commutes": ("dessinkit.models", ["commutes_with_y2"]),
    "models.two_adic": ("dessinkit.models", ["two_adic_verify"]),
    "cli.run": ("dessinkit.cli", ["run_cli"]),
}

# counted without a span: they run far more often than the spanned calls
COUNTS = {
    "perms.compose": (
        "dessinkit.perms",
        ["Permutation.__mul__", "Permutation.__pow__", "Permutation.inverse"],
    ),
}


def _fraction_bits(v):
    return v.numerator.bit_length() + v.denominator.bit_length() if isinstance(v, Fraction) else 0


def _after_order(tracer, args, result):
    group = args[0]
    tracer.add("perms.order.base_len", len(group.base()))
    tracer.add("perms.order.strong_gens", len(group.strong_generators()))


def _after_evaluate(tracer, args, result):
    tracer.add("words.evaluate.letters", len(args[0]))


def _after_iso(tracer, args, result):
    tracer.add("dessins.iso.found", result is not None)


def _after_reduce(tracer, args, result):
    tracer.add("belyi.reduce.chains", 1)
    tracer.add("belyi.reduce.stages", len(result))


def _after_verify(tracer, args, result):
    tracer.add("belyi.verify.ok", result.ok)


def _after_stage_eval(tracer, args, result):
    tracer.add("belyi.stage_eval.out_bits", _fraction_bits(result))


def _after_roots(tracer, args, result):
    tracer.add("belyi.rational_roots.degree", args[0].degree)


AFTER = {
    "perms.order": _after_order,
    "words.evaluate": _after_evaluate,
    "dessins.iso": _after_iso,
    "belyi.reduce": _after_reduce,
    "belyi.verify": _after_verify,
    "belyi.stage_eval": _after_stage_eval,
    "belyi.rational_roots": _after_roots,
}

# (metric, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("perms.order.calls", "count"),
    ("perms.order.self_s", "s"),
    ("perms.order.base_len", "count"),
    ("perms.order.strong_gens", "count"),
    ("perms.order_exceeds.calls", "count"),
    ("perms.order_exceeds.self_s", "s"),
    ("perms.is_member.calls", "count"),
    ("perms.is_member.self_s", "s"),
    ("perms.compose.calls", "count"),
    ("words.parse.calls", "count"),
    ("words.parse.self_s", "s"),
    ("words.evaluate.calls", "count"),
    ("words.evaluate.self_s", "s"),
    ("words.evaluate.letters", "count"),
    ("dessins.load.calls", "count"),
    ("dessins.load.self_s", "s"),
    ("dessins.descriptor.calls", "count"),
    ("dessins.descriptor.self_s", "s"),
    ("dessins.iso.calls", "count"),
    ("dessins.iso.self_s", "s"),
    ("dessins.iso.found_ratio", "fraction"),
    ("dessins.reg_iso.calls", "count"),
    ("dessins.reg_iso.self_s", "s"),
    ("dessins.witness.calls", "count"),
    ("dessins.witness.self_s", "s"),
    ("belyi.reduce.calls", "count"),
    ("belyi.reduce.self_s", "s"),
    ("belyi.reduce.verified_ratio", "fraction"),
    ("belyi.reduce.stages", "count"),
    ("belyi.verify.calls", "count"),
    ("belyi.verify.self_s", "s"),
    ("belyi.stage_eval.calls", "count"),
    ("belyi.stage_eval.self_s", "s"),
    ("belyi.stage_eval.out_bits", "bits"),
    ("belyi.crit.calls", "count"),
    ("belyi.crit.self_s", "s"),
    ("belyi.rational_roots.calls", "count"),
    ("belyi.rational_roots.self_s", "s"),
    ("belyi.rational_roots.degree", "count"),
    ("belyi.sturm.calls", "count"),
    ("belyi.sturm.self_s", "s"),
    ("belyi.bmn.calls", "count"),
    ("belyi.bmn.self_s", "s"),
    ("tower.mul.calls", "count"),
    ("tower.mul.self_s", "s"),
    ("tower.inverse.calls", "count"),
    ("tower.inverse.self_s", "s"),
    ("tower.galois.calls", "count"),
    ("tower.galois.self_s", "s"),
    ("tower.jinv.calls", "count"),
    ("tower.jinv.self_s", "s"),
    ("tower.distinct.calls", "count"),
    ("tower.distinct.self_s", "s"),
    ("models.gallery.calls", "count"),
    ("models.gallery.self_s", "s"),
    ("models.local_model.calls", "count"),
    ("models.local_model.self_s", "s"),
    ("models.commutes.calls", "count"),
    ("models.commutes.self_s", "s"),
    ("models.two_adic.calls", "count"),
    ("models.two_adic.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
]

# whole-run figures of the traced run, reported beside the per-layer metrics
TRACE_METRICS = [("trace.wall_s", "s"), ("trace.overhead_s", "s")]

# metrics averaged over a count instead of summed: span calls, or a counter
PER_CALL = {
    "perms.order.base_len": "perms.order",
    "perms.order.strong_gens": "perms.order",
    "dessins.iso.found_ratio": "dessins.iso",
    "belyi.reduce.verified_ratio": "belyi.reduce",
    "belyi.reduce.stages": "belyi.reduce.chains",
    "belyi.rational_roots.degree": "belyi.rational_roots",
}


def _resolve(owner, path):
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.op = 0
        self._stack = []
        self._saved = []

    def add(self, name, amount):
        self.counters[name] += amount

    def _span(self, name, fn):
        after = AFTER.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, replacement, holders):
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._saved.append((holder, key, original))
                    setattr(holder, key, replacement)

    def __enter__(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, (module, paths) in table.items():
                home = importlib.import_module(module)
                for path in paths:
                    owner_path, _, attr = path.rpartition(".")
                    if owner_path:
                        owner = _resolve(home, owner_path)
                        original = vars(owner)[attr]
                        self._rebind(original, make(name, original), [owner])
                    else:
                        original = getattr(home, attr)
                        self._rebind(original, make(name, original), modules)
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()
        return False

    def metrics(self):
        """Per-layer metric values: calls, self time and the recorded sizes."""
        values = defaultdict(int, self.counters)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child):
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += (end - start) - covered
        values["perms.compose.calls"] = self.counters["perms.compose"]
        values["dessins.iso.found_ratio"] = values["dessins.iso.found"]
        values["belyi.reduce.verified_ratio"] = values["belyi.verify.ok"]
        out = {}
        for metric, _ in PER_LAYER:
            value = values[metric]
            base = PER_CALL.get(metric)
            if base is not None:
                count = values[base if base in self.counters else f"{base}.calls"]
                value = value / count if count else 0
            out[metric] = value
        return out
