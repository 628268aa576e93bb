"""Benchmark for smallgen, run from the root of a checkout.

    python3 perfbench/run.py --workload survey --seed 0 --seconds 50 --trace 0

It imports smallgen from ``src/`` of the checkout (nothing is installed or
built), sets it up several times, repeats the workload for ``--seconds``
seconds with the package caches cleared before each repetition, then checks
every output against the oracle and the golden digests.  Everything runs in
this one process: no thread pool, no child process.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
spends half the time untraced and half with layer spans installed, and
reports the per-layer metrics.  The last line of stdout is one JSON object;
the lines before it give every metric, with its unit, for people.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A --trace 0 run sets up at least SETUPS times and for at least SETUP_SECONDS;
# setup_s is the median.
SETUPS, SETUP_SECONDS = 5, 1.0

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fresh_import():
    """Import smallgen as a new process would (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "smallgen" or n.startswith("smallgen.")]:
        del sys.modules[name]
    return importlib.import_module("smallgen")


def clear_caches() -> None:
    """Empty every functools cache in the package (PrimeSetSpec.realize, dickman_rho)."""
    for name, module in list(sys.modules.items()):
        if name.startswith("smallgen."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def set_up(workload, seed: int, times: int, min_seconds: float = 0.0):
    """Import smallgen and make the inputs ``times`` times, and more until
    ``min_seconds`` have passed; return the last ones."""
    seconds = []
    while len(seconds) < times or sum(seconds) < min_seconds:
        t0 = time.perf_counter()
        sg = fresh_import()
        inputs = workload.make_inputs(sg, seed)
        seconds.append(time.perf_counter() - t0)
    return sg, inputs, seconds


class Run:
    """Repetitions of one workload and the failures found in them."""

    def __init__(self, workload, sg, inputs):
        self.workload, self.sg, self.inputs = workload, sg, inputs
        self.reps: list[workloads.Rep] = []
        self.wall: list[float] = []
        self.digests: list[dict] = []

    def repeat(self, seconds: float, tracer: spans.Tracer | None = None) -> list[dict]:
        """Run repetitions for about ``seconds``: another one starts while it
        is expected to end less than half a repetition late.  With a tracer,
        return the span metrics of each repetition."""
        layer = []
        start, walls = time.perf_counter(), []
        while True:
            clear_caches()
            gc.collect()
            rep = workloads.Rep()
            if tracer is not None:
                tracer.reset()
            t0 = time.perf_counter()
            if tracer is None:
                self.workload.run(self.sg, self.inputs, rep)
            else:
                with tracer:
                    self.workload.run(self.sg, self.inputs, rep)
            walls.append(time.perf_counter() - t0)
            if tracer is not None:
                layer.append(tracer.metrics())
                if not layer[1:]:
                    layer[0].update(spans.genset_counts(self.sg, rep.outputs.get("rows", [])))
            self.digests.append(self.workload.digest(rep))
            if self.reps:
                rep.outputs = {}  # keep memory flat: later repetitions are checked by digest
            self.reps.append(rep)
            if time.perf_counter() - start + median(walls) / 2 > seconds:
                self.wall += walls
                return layer

    @property
    def attempted(self) -> int:
        return sum(rep.ops for rep in self.reps)

    def failed(self, seed: int) -> tuple[int, dict]:
        """Failed operations: the oracle on the first repetition, the digest of
        every later one against it, and the first against the golden digest."""
        failed = self.workload.check(self.sg, self.inputs, self.reps[0])
        digest = self.digests[0]
        for rep, other in zip(self.reps[1:], self.digests[1:]):
            if other != digest:
                failed += rep.ops
        golden = self.workload.golden(seed)
        if any(digest[key] != value for key, value in golden.items()):
            print(f"golden mismatch: expected {golden}, got {digest}", file=sys.stderr)
            failed = self.attempted
        return min(failed, self.attempted), digest


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in SRC.rglob("*.py"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smallgen" / "__init__.py").is_file():
        print(f"run.py: no smallgen sources in {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loaded once before set-up: an extension module cannot be re-imported)

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        sg, inputs, setup_seconds = set_up(workload, args.seed, 1)
    else:
        sg, inputs, setup_seconds = set_up(workload, args.seed, SETUPS, SETUP_SECONDS)
    run = Run(workload, sg, inputs)
    metrics: dict[str, float] = {}
    if args.trace:
        run.repeat(args.seconds / 2)
        untraced = len(run.reps)
        layer = run.repeat(args.seconds / 2, spans.Tracer())
        # Times are medians over the traced repetitions; counts are the same in each.
        for name in layer[0]:
            metrics[name] = median(m[name] for m in layer) if name.endswith("ms") else layer[0][name]
        metrics["trace.overhead_ratio"] = median(run.wall[untraced:]) / median(run.wall[:untraced])
        metrics["src.lines"] = src_lines()
    else:
        run.repeat(args.seconds)
        untraced = len(run.reps)
        metrics = {
            "setup_s": median(setup_seconds),
            "wall_s": median(run.wall),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    failed, digest = run.failed(args.seed)
    attempted = run.attempted

    print(f"workload {workload.name}  seed {args.seed}  set-ups {len(setup_seconds)}  repetitions {len(run.reps)}")
    print("repetition_s " + " ".join(f"{t:.4g}" for t in run.wall))
    for key, value in digest.items():
        print(f"digest {key} {value}")
    for name, (value, unit) in workload.summary(run.reps[:untraced]).items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failure_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    result = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
