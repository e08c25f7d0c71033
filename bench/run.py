"""marginlab benchmark launcher.

    python3 bench/run.py --workload refine --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the repository root.  One workload per process: set-up is
repeated and timed, one throwaway warm-up follows, then identical passes
run until ``--seconds`` have gone by (each pass runs to its end).  With
``--trace 0`` the last output line holds the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and the last line
holds the per-layer metrics, including the tracing overhead.  Full
results, machine facts and (traced runs) every span are written under
``.bench_out/``; scratch inputs live under ``.bench_work/`` and are
removed at exit.  ``--workload all`` runs each workload in its own
process and prints the named stage metrics of all three.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

# BLAS threads are pinned before numpy loads.  On a 2-vCPU Xeon virtual
# machine, 40 fisher steps took 2.3-4.3 s with one thread and 3.0-3.8 s
# with two, so two threads are steadier (at twice the CPU time).
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# Fixed report stamps make every pass's output files byte-identical.
os.environ["SOURCE_DATE_EPOCH"] = "0"
os.environ["PYTHONPATH"] = SRC
sys.path.insert(0, SRC)

# Set-up runs at least 3 times, and more while it has taken under 2 s.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 3, 9, 2.0
WORKLOAD_NAMES = ("refine", "audit", "synth")

# Named stage metrics of each workload: (unit, True when higher is better).
STAGE_METRICS = {
    "pass_s": ("s", False),
    "ce_tokens_per_s": ("1/s", True),
    "fisher_tokens_per_s": ("1/s", True),
    "audit_model_tokens_per_s": ("1/s", True),
    "ce_final": ("nats", False),
    "audit_positions_per_s": ("1/s", True),
    "compare_positions_per_s": ("1/s", True),
    "gapfit_positions_per_s": ("1/s", True),
    "validate_s.circle2": ("s", False),
    "validate_s.square8": ("s", False),
}
END_TO_END_UNITS = {"setup_s": "s", "pass_ref_s": "s", "peak_rss_mib": "MiB"}
OVERHEAD_METRICS = tuple(k for k in STAGE_METRICS if k != "ce_final")

# A 2-vCPU Xeon virtual machine on a shared host changes speed by up to
# ~40% for tens of seconds to minutes at a time, for every kind of code.  A fixed kernel
# timed just before each pass measures that speed, and ``pass_ref_s``
# rescales each pass to the speed at which the kernel takes CAL_REF_S.
# On ten seeds this cut the run-to-run spread of refine from 0.16 to 0.07.
CAL_REF_S = 0.1

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import marginlab, marginlab.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(out.stdout.strip())


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "loadavg_at_start": os.getloadavg(),
        "commit": _commit(),
    }


def per_layer_unit(name: str) -> str:
    if name.startswith("tracing.overhead_pct."):
        return "%"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith((".useful_ratio.ce", ".useful_ratio.fisher", ".calls_per_distinct")):
        return "ratio"
    if ".ms" in name or "_ms" in name:
        if not name.startswith("training.step_ms.n."):
            return "ms"
    return "count"


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def _median_dict(rows: list[dict]) -> dict:
    return {k: float(statistics.median(r[k] for r in rows)) for k in rows[0]} if rows else {}


def _slowdown_pct(name: str, untraced: dict, traced: dict) -> float:
    if name not in untraced or name not in traced:
        return 0.0
    higher_better = name in STAGE_METRICS and STAGE_METRICS[name][1]
    u, t = untraced[name], traced[name]
    return 100.0 * ((u / t) if higher_better else (t / u)) - 100.0


def calibrate() -> float:
    """Seconds for a fixed mix of small BLAS calls, numpy reductions and
    sorts, and interpreted Python; independent of marginlab."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((96, 64)), rng.standard_normal((64, 512))
    big = rng.standard_normal(250_000)  # small, to stay under the program's peak RSS
    t0 = time.perf_counter()
    for _ in range(150):
        x = a @ b
        x -= x.max(axis=1, keepdims=True)
        np.exp(x, out=x)
        np.argsort(-x[:16], axis=1, kind="stable")
        acc = 0.0
        for v in range(300):
            acc += v * 0.5
    for _ in range(8):
        big.copy().sum()
    np.sort(big)
    return time.perf_counter() - t0


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import workloads

        self.name, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.workdir)
        self.workload = workloads.WORKLOADS[workload](seed, self.workdir)
        self.attempted = 0
        self.failed_checks: list[str] = []
        self.check_counts: dict[str, list[int]] = {}

    def record_checks(self, results: dict[str, bool]) -> None:
        for name, ok in results.items():
            self.attempted += 1
            tally = self.check_counts.setdefault(name, [0, 0])
            tally[0] += 1
            if not ok:
                tally[1] += 1
                self.failed_checks.append(name)

    def setup(self) -> list[float]:
        times: list[float] = []
        while len(times) < SETUP_MIN_REPS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS
        ):
            imports = import_seconds()
            t0 = time.perf_counter()
            self.workload.setup()
            times.append(imports + time.perf_counter() - t0)
        return times

    def measure(self) -> list[dict]:
        from tracing import PassSpans, Tracer

        tracer = self.tracer = Tracer()
        passes = []
        start = time.perf_counter()
        while True:
            traced = self.trace and len(passes) % 2 == 1
            first_span = len(tracer.spans)
            if traced:
                tracer.counts = {}
                tracer.install()
            phase = (lambda label: setattr(tracer, "run", label)) if traced else (lambda label: None)
            self.attempted += self.workload.operations
            cal = calibrate()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                stage_s = self.workload.run_pass(phase)
            except Exception:
                traceback.print_exc()
                self.failed_checks.append("pass raised")
                return passes
            finally:
                tracer.restore()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            record = {
                "traced": traced, "wall_s": wall, "cpu_s": cpu, "cal_s": cal, "stage_s": stage_s,
                "stage_metrics": dict(self.workload.stage_metrics(stage_s), pass_s=wall),
            }
            if traced:
                record["spans"] = PassSpans(tracer.spans[first_span:], tracer.counts)
            passes.append(record)
            self.record_checks(self.workload.check_pass())
            if time.perf_counter() - start >= self.seconds and (not self.trace or len(passes) >= 2):
                return passes

    def execute(self) -> dict:
        facts = machine_facts()
        try:
            setup_times = self.setup()
            self.workload.warm_up()
            passes = self.measure()
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if passes:
                self.record_checks(self.workload.final_checks())
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        result = {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace), "machine": facts, "setup_s_runs": setup_times,
            "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
            "checks": self.check_counts, "failed_checks": sorted(set(self.failed_checks)),
            "stage_metrics": _median_dict([p["stage_metrics"] for p in plain]),
            "end_to_end": {
                "setup_s": statistics.median(setup_times),
                "pass_ref_s": statistics.median(
                    p["wall_s"] * CAL_REF_S / p["cal_s"] for p in plain
                ) if plain else 0.0,
                "peak_rss_mib": peak_rss_mib,
            },
        }
        if self.trace and traced:
            result["per_layer"] = self.per_layer(plain, traced)
            self.tracer.write(os.path.join(ROOT, ".bench_out", self.stem() + "-spans.jsonl"))
        return result

    def per_layer(self, plain: list[dict], traced: list[dict]) -> dict:
        from tracing import pass_metrics, step_percentiles

        out = _median_dict([pass_metrics(p["spans"]) for p in traced])
        out.update(step_percentiles([p["spans"] for p in traced]))
        untraced = _median_dict([p["stage_metrics"] for p in plain])
        with_trace = _median_dict([p["stage_metrics"] for p in traced])
        for name in OVERHEAD_METRICS:
            out[f"tracing.overhead_pct.{name}"] = _slowdown_pct(name, untraced, with_trace)
        return out

    def stem(self) -> str:
        return f"{self.name}-seed{self.seed}-trace{int(self.trace)}"


def ce_step_breakdown(per_layer: dict) -> list[tuple[str, float]]:
    """Where a CE step's time goes, largest first (ms per step)."""
    logging_fisher = per_layer["objectives.fisher_loss.ms_per_step.ce"] - (
        per_layer["objectives.fisher_loss.useful_ratio.ce"]
        * per_layer["objectives.fisher_loss.ms_per_step.ce"]
    )
    parts = {
        "logging fisher_loss (training.step_metrics)": logging_fisher,
        "other logging metrics (training.step_metrics)":
            per_layer["training.step_metrics.ms_per_step.ce"] - logging_fisher,
        "backward (autodiff.backward)": per_layer["autodiff.backward.ms_per_step.ce"],
        "forward (toylm.forward self)": per_layer["toylm.forward.self_ms_per_step.ce"],
        "loss (objectives.combined_loss)": per_layer["objectives.combined_loss.ms_per_step.ce"],
        "optimizer and batching (training self)": per_layer["training.self_ms_per_step.ce"],
    }
    return sorted(parts.items(), key=lambda kv: -kv[1])


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "marginlab")):
        print(f"bench: no marginlab package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = run.execute()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", run.stem() + ".json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, value in result["stage_metrics"].items():
        print(f"{name} {value!r} {STAGE_METRICS[name][0]}")
    for name in result["failed_checks"]:
        print(f"bench: check failed: {name}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in sorted(result.get("per_layer", {}).items())}
        if args.workload == "refine" and "per_layer" in result:
            print("CE step breakdown (ms per step, largest first):")
            for label, ms in ce_step_breakdown(result["per_layer"]):
                print(f"  {ms:9.2f}  {label}")
    else:
        metrics = {k: {"value": result["end_to_end"][k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
    failed = len(run.failed_checks)
    print(json.dumps({
        "correct": failed == 0, "attempted": max(run.attempted, 1), "failed": failed,
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload in its own process; print the named metrics."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        stem = f"{workload}-seed{args.seed}-trace0"
        with open(os.path.join(ROOT, ".bench_out", stem + ".json"), encoding="utf-8") as f:
            result = json.load(f)
        attempted += last["attempted"]
        failed += last["failed"]
        e2e = result["end_to_end"]
        metrics[f"{workload}.setup_s"] = (e2e["setup_s"], "s")
        metrics[f"{workload}.peak_rss_mib"] = (e2e["peak_rss_mib"], "MiB")
        metrics[f"{workload}.failed_fraction"] = (last["failed"] / last["attempted"], "fraction")
        for name, value in result["stage_metrics"].items():
            metrics[f"{workload}.{name}"] = (value, STAGE_METRICS[name][0])
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
