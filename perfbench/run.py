#!/usr/bin/env python3
"""Benchmark for smaspl: training at paper scale and on a binding line,
plus online dispatch on the 98-bus case.

    python3 perfbench/run.py --workload paper98-train --seed 1 \
        --seconds 30 --trace 0

Runs from the root of a source checkout and imports `smaspl` from its
`src/` directory, in this one process.  The workloads are described in
`workloads.py`.  Each is a closed loop with one caller.  After repeated
timed set-ups and an untimed warm-up, the benchmark runs rounds of
operations until the next round would end past `--seconds`; at least
one round always runs.  Every operation's output is checked against the stored
reference (`check.py`); a mismatch counts as a failed operation and
makes the benchmark exit with status 1.

`--trace 0` reports the end-to-end metrics:

  setup_s        median of load_scenario + build_world + build_agents,
                 repeated for at least 1.5 s and five times
  op_ms.p50      median wall time of one operation: a training episode,
                 or a dispatch decision together with its cost
  op_ms.p95      95th percentile of the same when at least ten operations
                 lie beyond it (200 or more operations), else the maximum
  samples_per_s  joint action samples per second of operation time:
                 accepted batch samples for training, policy draws for
                 dispatch

`--trace 1` runs every operation twice, untraced and then traced, and
reports the per-layer metrics of `LAYER_METRICS` from the traced copies,
per operation; the spans go to `perfbench/out/`.  `--workload all` runs
every workload both ways in this one process and prints every metric.

The BLAS and SMASPL_THREADS settings are used as found and recorded in
the `# env` line.  The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SECONDS = 1.5    # set-ups repeat until this long and at least
SETUP_REPS = 5         # this many times

sys.path.insert(0, str(HERE))

from check import load_refs, mismatches, ref_key  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, build, program  # noqa: E402

E2E_UNITS = {"setup_s": "s", "op_ms.p50": "ms", "op_ms.p95": "ms",
             "samples_per_s": "1/s"}

# name -> unit; all are per traced operation unless the unit says otherwise
LAYER_METRICS = {
    "grid.pf_calls": "count/op",
    "grid.pf_s": "s/op",
    "grid.newton_iters_mean": "count/solve",
    "grid.pf_nonconverged": "count/op",
    "grid.discard_frac": "frac",
    "gradients.sens_calls": "count/op",
    "gradients.sens_s": "s/op",
    "gradients.factorizations": "count/op",
    "gradients.action_grad_s": "s/op",
    "gradients.chain_calls": "count/op",
    "gradients.chain_s": "s/op",
    "policy.evaluate_s": "s/op",
    "policy.fisher_s": "s/op",
    "policy.sample_s": "s/op",
    "training.project_calls": "count/op",
    "training.project_s": "s/op",
    "training.inner_iterations": "count/op",
    "training.backtrack_rounds": "count/op",
    "training.self_s": "s/op",
    "microgrid.returns_s": "s/op",
    "microgrid.injections_s": "s/op",
    "scenario.load_s": "s/setup",
    "scenario.forecast_s": "s/op",
    "cli.dispatch_cost_s": "s/op",
    "trace_overhead_frac": "frac",
    "failed_frac": "frac",
}

# self time of these span names, summed
SELF_TIME = {
    "grid.pf_s": ("grid.solve_power_flow",),
    "gradients.sens_s": ("gradients.compute_step_sensitivities",),
    "gradients.action_grad_s": ("gradients.reward_action_gradients",
                                "gradients.constraint_action_gradients"),
    "gradients.chain_s": ("gradients.chain_sample_to_parameters",),
    "policy.evaluate_s": ("policy.evaluate",),
    "policy.fisher_s": ("policy.fisher",),
    "policy.sample_s": ("policy.sample_actions",),
    "training.project_s": ("training.project_local",),
    "training.self_s": ("training.train_episode",
                        "training.select_actions_online"),
    "microgrid.returns_s": ("microgrid.reward_return",
                            "microgrid.constraint_returns"),
    "microgrid.injections_s": ("microgrid.actions_to_injections",),
    "scenario.forecast_s": ("scenario.forecast_with_error",),
}
CALL_COUNT = {
    "grid.pf_calls": "grid.solve_power_flow",
    "gradients.sens_calls": "gradients.compute_step_sensitivities",
    "gradients.chain_calls": "gradients.chain_sample_to_parameters",
    "training.project_calls": "training.project_local",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import smaspl from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "smaspl" / "__init__.py").is_file():
        fail(f"no smaspl sources under {src}")
    sys.path.insert(0, str(src))
    import smaspl
    if Path(smaspl.__file__).resolve().parent != (src / "smaspl").resolve():
        fail(f"imported smaspl from {smaspl.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "machine": platform.node(), "platform": platform.platform(),
        "cpu": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        **{k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SMASPL_THREADS")},
    }


def p95_or_max(values: list[float]) -> tuple[float, str]:
    """95th percentile when at least ten values lie beyond it, else max."""
    if len(values) * 0.05 >= 10:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        return cuts[94], "p95"
    return max(values), "max"


class Run:
    def __init__(self, workload: str, seconds: float, trace: bool):
        self.wl = WORKLOADS[workload]()
        self.seconds, self.trace = seconds, trace
        self.refs = load_refs(workload)
        self.tracer = Tracer() if trace else None
        self.plain: list = []      # untraced operations
        self.traced: list = []     # traced twins (trace mode only)
        self.errors: list[str] = []
        self.factorizations = 0

    def check(self, res) -> bool:
        key = ref_key(res.seed, res.key)
        if key not in self.refs:
            bad = [f"no reference for {key}"]
        else:
            bad = mismatches(self.refs[key], res.output, key)
        self.errors.extend(bad)
        return not bad

    def setup(self) -> list[float]:
        times = []
        if self.tracer:
            self.tracer.install()
        try:
            build(self.wl.path, self.wl.setup_seed())   # untimed: cold caches
            while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
                t0 = time.perf_counter()
                build(self.wl.path, self.wl.setup_seed())
                times.append(time.perf_counter() - t0)
        finally:
            if self.tracer:
                self.tracer.uninstall()
        return times

    def traced_op(self, x):
        from smaspl.gradients import factorization_count
        prepared = self.wl.prepare(x)
        tracer = self.tracer
        tracer.op = len(self.traced)
        before = factorization_count()
        tracer.install()
        try:
            with tracer.span("op"):
                res = self.wl.run(x, prepared)
        finally:
            tracer.uninstall()
            tracer.op = None
        self.factorizations += factorization_count() - before
        return res

    def measure(self) -> None:
        t_start = time.perf_counter()
        k = 0
        while True:
            t_round = time.perf_counter()
            for x in self.wl.round_inputs(k):
                res = self.wl.run(x, self.wl.prepare(x))
                res.correct = self.check(res)
                self.plain.append(res)
                if self.trace:
                    twin = self.traced_op(x)
                    twin.correct = self.check(twin)
                    self.traced.append(twin)
            k += 1
            now = time.perf_counter()
            if now - t_start + (now - t_round) > self.seconds:
                break

    def all_ops(self) -> list:
        return self.plain + self.traced

    def end_to_end(self, setup: list[float]) -> dict:
        walls = [r.wall_s for r in self.plain]
        p95, _ = p95_or_max(walls)
        return {
            "setup_s": statistics.median(setup),
            "op_ms.p50": 1e3 * statistics.median(walls),
            "op_ms.p95": 1e3 * p95,
            "samples_per_s": sum(r.samples for r in self.plain) / sum(walls),
        }

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        own = self_times(spans)
        ops = self.traced
        n = len(ops)
        by_name: dict[str, list] = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        out = {m: sum(own[s.id] for nm in names for s in by_name.get(nm, ()))
               / n for m, names in SELF_TIME.items()}
        for m, nm in CALL_COUNT.items():
            out[m] = sum(s.op is not None for s in by_name.get(nm, ())) / n
        pf = [s for s in by_name.get("grid.solve_power_flow", ())
              if s.op is not None]
        nonconv = sum(1 for s in pf if not s.attrs["converged"])
        samples = sum(r.samples for r in ops)
        out["grid.newton_iters_mean"] = (
            statistics.fmean(s.attrs["iterations"] for s in pf) if pf else 0.0)
        out["grid.pf_nonconverged"] = nonconv / n
        out["grid.discard_frac"] = nonconv / (samples + nonconv) \
            if samples + nonconv else 0.0
        out["gradients.factorizations"] = self.factorizations / n
        out["training.inner_iterations"] = statistics.fmean(
            r.inner_iterations for r in ops)
        out["training.backtrack_rounds"] = statistics.fmean(
            r.backtrack_rounds for r in ops)
        out["cli.dispatch_cost_s"] = sum(
            s.duration for s in by_name.get("cli.dispatch_cost", ())) / n
        out["scenario.load_s"] = statistics.median(
            s.duration for s in by_name.get("scenario.load_scenario", ())
            if s.op is None)
        out["trace_overhead_frac"] = (
            sum(r.wall_s for r in ops) / sum(r.wall_s for r in self.plain) - 1)
        out["failed_frac"] = failed(self.all_ops()) / len(self.all_ops())
        return {m: out[m] for m in LAYER_METRICS}


def failed(ops) -> int:
    return sum(1 for r in ops if r.failure or not r.correct)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    """One workload in this process; prints its report, returns the result."""
    run = Run(name, seconds, trace)
    run.wl.begin(seed)
    setup = run.setup()
    run.wl.warm_up()
    run.measure()

    for r in run.plain:
        print(f"# op seed={r.seed} key={r.key} wall_s={r.wall_s:.4f} "
              f"inner_iterations={r.inner_iterations} "
              f"backtrack_rounds={r.backtrack_rounds} samples={r.samples} "
              f"failure={r.failure} correct={r.correct}")
    for msg in run.errors[:20]:
        print(f"perfbench: output check: {msg}", file=sys.stderr)

    if trace:
        metrics, units = run.per_layer(), LAYER_METRICS
    else:
        metrics, units = run.end_to_end(setup), E2E_UNITS
    walls = [r.wall_s for r in run.plain]
    _, tail = p95_or_max(walls)
    print(f"# {name} seed={seed} trace={int(trace)} ops={len(walls)}: "
          f"op_ms.p95 is the {tail} of {len(walls)} operations")
    for metric, value in metrics.items():
        print(f"# {name} {metric} = {value:.6g} {units[metric]}")

    if trace:
        OUT.mkdir(exist_ok=True)
        dump = {"workload": name, "seed": seed, "env": env,
                "ops": [vars(r) | {"output": None} for r in run.all_ops()],
                "metrics": metrics, "spans": run.tracer.to_json()}
        path = OUT / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps(dump))
        print(f"# spans -> {path.relative_to(ROOT)}")

    return {
        "correct": not run.errors,
        "attempted": len(run.all_ops()),
        "failed": failed(run.all_ops()),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"],
                    help="'all' runs every workload untraced and traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    program()
    env = environment()
    print("# env " + json.dumps(env))

    if args.workload == "all":
        result = {f"{name} trace={trace}": run_workload(
                      name, args.seed, args.seconds, bool(trace), env)
                  for name in WORKLOADS for trace in (0, 1)}
        correct = all(r["correct"] for r in result.values())
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), env)
        correct = result["correct"]
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
