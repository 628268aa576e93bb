"""Layer spans put on smallgen from outside, and the per-layer metrics they give.

A span wraps one public function.  It is installed in every smallgen module
namespace that holds the function, because that is where each call site
looks the name up, and the originals are put back on exit.  Private helpers
get no span: a change that deletes a helper would also delete the span that
is meant to judge it.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> (module, public attribute)
SPANS = {
    "modcore.factorize": ("modcore", "factorize"),
    "modcore.field_spec": ("modcore", "field_spec"),
    "modcore.residue_signature": ("modcore", "residue_signature"),
    "modcore.multiplicative_order": ("modcore", "multiplicative_order"),
    "genset.exact": ("genset", "exact_min_generating_set"),
    "genset.greedy": ("genset", "greedy_block_generating_set"),
    "genset.elementary": ("genset", "elementary_generating_set"),
    "anatomy.anatomy_record": ("anatomy", "anatomy_record"),
    "sievelab.prime_flags": ("sievelab", "prime_flags"),
    "sievelab.realize": ("sievelab", "PrimeSetSpec.realize"),
    "sievelab.psi_count": ("sievelab", "psi_count"),
    "sievelab.mertens_sum": ("sievelab", "mertens_sum"),
    "sievelab.complement_product": ("sievelab", "complement_product"),
    "experiments.survey": ("experiments", "survey"),
    "experiments.survey_row": ("experiments", "survey_row"),
    "experiments.survey_csv": ("experiments", "survey_csv"),
    "experiments.read_survey_csv": ("experiments", "read_survey_csv"),
    "experiments.density_experiment": ("experiments", "density_experiment"),
}

# Counts read off a span's return value: prefix -> (counter, value of one result).
RESULT_COUNTERS = {
    "sievelab.prime_flags": ("bytes", lambda flags: int(flags.nbytes)),
    "sievelab.psi_count": ("value", int),
    "experiments.survey_csv": ("bytes", lambda text: len(text.encode())),
}


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "counter")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.counter = 0


class Tracer:
    """Context manager that installs the spans on the imported smallgen package."""

    def __init__(self):
        self.stats = {prefix: SpanStats() for prefix in SPANS}
        self._stack: list[int] = []  # child time of each open span, innermost last
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {prefix: SpanStats() for prefix in SPANS}

    def _wrap(self, prefix: str, fn):
        stack = self._stack
        counter = RESULT_COUNTERS.get(prefix, (None, None))[1]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                s = self.stats[prefix]
                s.calls += 1
                s.total_ns += dt
                s.self_ns += dt - child
            if counter is not None:
                s.counter += counter(result)
            return result

        return span

    def __enter__(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "smallgen"]
        try:
            for prefix, (mod_name, attr) in SPANS.items():
                mod = sys.modules[f"smallgen.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(prefix, original))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(prefix, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, original, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self._stack.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix, s in self.stats.items():
            out[f"{prefix}.calls"] = s.calls
            out[f"{prefix}.ms"] = s.total_ns / 1e6
            out[f"{prefix}.self_ms"] = s.self_ns / 1e6
            if prefix in RESULT_COUNTERS:
                out[f"{prefix}.{RESULT_COUNTERS[prefix][0]}"] = s.counter
        return out


def genset_counts(sg, rows) -> dict[str, float]:
    """Search-work counts computed from survey rows; every row ran all three
    constructions, each scanning [2, n_used] after doubling up from the
    initial radius."""
    policy = sg.genset.SearchPolicy()
    scanned = useful = doublings = h1 = r_sum = 0
    for row in rows:
        scanned += 3 * (row.n_used - 1)
        useful += max(row.exact_elements) + max(row.greedy_elements) + max(row.elementary_elements)
        radius = min(policy.initial_radius(row.p), policy.cap(row.p))
        while radius < row.n_used:
            radius = min(2 * radius, policy.cap(row.p))
            doublings += 3
        h1 += row.h_exact == 1
        r_sum += row.omega
    n = len(rows)
    return {
        "genset.candidates_scanned": scanned,
        "genset.radius_doublings": doublings,
        "genset.scan_useful_ratio": useful / scanned if scanned else 0.0,
        "genset.h1_share": h1 / n if n else 0.0,
        "genset.mean_r": r_sum / n if n else 0.0,
    }
