#!/usr/bin/env python3
"""The gnk benchmark: closed-loop workloads over the CLI and the library.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

One caller runs one operation at a time, back to back, in a child process
with the BLAS thread count fixed.  Inputs come from ``--seed`` through
``inputs.py``; every output is checked against ``oracles.py``, which never
calls gnk.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` each unit of work runs once
untraced and once under ``spans.py``, and the line carries the per-layer
metrics.  ``--smoke`` runs every workload in both modes at tiny sizes.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

TOL = 1e-8
# least set-up samples per run: index-report is cheap, the batch set-up is not
SETUP_REPEATS = {"cli": 5, "batch": 3}
# A whole run, builds aside, must end within 180 s; children past this are killed.
RUN_DEADLINE_S = 170.0
# Mobius kernel differences up to this are roundoff at m = 16, n = 256
# (relative difference about 2.5e-13 against max|K| growing with n).
MOBIUS_ROUNDOFF = 1e-10
# The one known fault: verify gates the Mobius differences with an absolute
# 1e-12, which roundoff exceeds on the 16-circle lattice at n = 256.
KNOWN_FAULTS = ("verify-mobius-absolute-gate",)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # gnk subcommand, or "batch" for the library worker
    holes: str           # generator in inputs.py
    n: int
    smoke_n: int
    constants: bool = False
    reads_data: bool = True
    probes: int = 0      # eval-field grid points per axis
    smoke_probes: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("dirichlet-lattice16", "solve-dirichlet", "lattice16", 256, 64,
             constants=True),
    Workload("verify-lattice16", "verify", "lattice16", 256, 64, reads_data=False),
    Workload("field-circles3", "eval-field", "circles3", 256, 64,
             probes=150, smoke_probes=16),
    Workload("rhp-batch-mixed3", "batch", "mixed3", 512, 128),
)}


class Failed(Exception):
    """An operation whose exit status or output check failed."""

    def __init__(self, reason: str, **detail):
        super().__init__(reason)
        self.reason = reason
        self.detail = detail


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    out: Path


@dataclass
class Tally:
    """What one run saw: timings, failures by reason, layer samples."""

    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    setup_failures: Counter = field(default_factory=Counter)
    notes: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    walls: dict = field(default_factory=lambda: defaultdict(list))

    def fail(self, exc: Failed) -> None:
        self.failures[exc.reason] += 1
        if exc.detail:
            self.notes.append(f"{exc.reason}: " + ", ".join(
                f"{k}={v}" for k, v in sorted(exc.detail.items())))


class Runner:
    """Runs child processes inside the checkout under a shared deadline."""

    def __init__(self, threads: int, workdir: Path):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.workdir = workdir
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)

    def next_dir(self) -> Path:
        """A fresh directory for one child's output files."""
        self.count += 1
        out = self.workdir / f"op{self.count}"
        out.mkdir()
        return out

    def run(self, argv: list[str], out: Path) -> Proc:
        with open(out / "stdout", "w") as so, open(out / "stderr", "w") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=so, stderr=se)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, out)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


# ----------------------------------------------------------------- checks


def _exit_ok(proc: Proc, allowed=(0,)) -> None:
    if proc.code not in allowed:
        tail = (proc.out / "stderr").read_text()[-300:].strip()
        raise Failed(f"exit-{proc.code}", stderr=repr(tail))


def _close(name: str, got, want, tol: float = TOL) -> None:
    err = oracles.sup(np.asarray(got) - np.asarray(want))
    if not err <= tol:
        raise Failed(name, max_error=f"{err:.3e}")


def _index_zero(problem: inputs.Problem) -> tuple[int, int]:
    """Oracle nullities for A = 1, whose index is zero on every curve."""
    return oracles.predicted_nullities([0] * problem.m)


def check_index_report(problem, n, proc: Proc, out: Path) -> dict:
    _exit_ok(proc)
    report = oracles.strict_json((out / "index.json").read_text())
    minus, plus = _index_zero(problem)
    if (report["kappa_per_curve"] != [0] * problem.m
            or report["dim_null_I_minus_N"] != minus
            or report["dim_null_I_plus_N"] != plus):
        raise Failed("index-report-mismatch")
    return {}


def check_dirichlet(problem, n, proc: Proc, out: Path) -> dict:
    _exit_ok(proc)
    diag = oracles.strict_json((out / "diagnostics.json").read_text())
    if (diag["nullity_I_minus_N"], diag["nullity_I_plus_N"]) != _index_zero(problem):
        raise Failed("dirichlet-nullity")
    _close("dirichlet-h-constants", diag["h_constants"], -np.asarray(problem.constants))
    table = np.loadtxt(out / "boundary.csv", delimiter=",", skiprows=1, ndmin=2)
    eta, _ = oracles.boundary(problem, n)
    f = oracles.rational(problem, eta)
    shift = np.repeat(problem.constants, n)
    if table.shape != (problem.m * n, 7):
        raise Failed("dirichlet-csv-shape")
    _close("dirichlet-layout", table[:, 0] + table[:, 1],
           np.repeat(np.arange(problem.m), n) + np.tile(oracles.nodes(n), problem.m), 1e-12)
    _close("dirichlet-gamma", table[:, 2], f.real + shift)
    _close("dirichlet-mu", table[:, 3], f.imag)
    _close("dirichlet-h", table[:, 4], -shift)
    _close("dirichlet-f", table[:, 5] + 1j * table[:, 6], f)
    return {}


def check_verify(problem, n, proc: Proc, out: Path) -> dict:
    _exit_ok(proc, (0, 2))
    report = oracles.strict_json((out / "verify.json").read_text())
    minus, plus = _index_zero(problem)
    nullity = report["nullity"]
    if not (report["identity"]["ok"]
            and report["identity"]["r1_max"] <= report["identity"]["tolerance"]
            and report["identity"]["r2_max"] <= report["identity"]["tolerance"]):
        raise Failed("verify-identity")
    if not (nullity["ok"]
            and nullity["I_minus_N"]["measured"] == nullity["I_minus_N"]["predicted"] == minus
            and nullity["I_plus_N"]["measured"] == nullity["I_plus_N"]["predicted"] == plus):
        raise Failed("verify-nullity")
    if not (report["jump"]["ok"] and report["jump"]["residual"] <= report["jump"]["tolerance"]):
        raise Failed("verify-jump")
    if report["kappa_per_curve"] != [0] * problem.m:
        raise Failed("verify-kappa")
    mobius = report["mobius"]
    # image indices: the last curve becomes the outer one and gains one
    shifted = [1] + [0] * (problem.m - 1) + [1]
    if not mobius["index_shift"] == mobius["index_direct"] == shifted:
        raise Failed("verify-index-shift")
    diffs = {"max_diff_N": mobius["max_diff_N"], "max_diff_M1": mobius["max_diff_M1"]}
    if report["ok"] != mobius["ok"] or (proc.code == 0) != report["ok"]:
        raise Failed("verify-status-inconsistent")
    if not mobius["ok"]:
        if max(diffs.values()) <= MOBIUS_ROUNDOFF:
            raise Failed(KNOWN_FAULTS[0], tolerance=mobius["tolerance"], **diffs)
        raise Failed("verify-mobius-kernel-mismatch", **diffs)
    return diffs


def check_field(problem, n, proc: Proc, out: Path, probes: int) -> dict:
    _exit_ok(proc)
    with open(out / "field.csv", newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["x", "y", "u", "in_band_flag"] or len(rows) != probes * probes + 1:
        raise Failed("field-csv-shape")
    xs = np.linspace(-6.0, 6.0, probes)
    gx, gy = np.meshgrid(xs, xs)
    z = (gx + 1j * gy).ravel()
    got_z = np.array([complex(float(r[0]), float(r[1])) for r in rows[1:]])
    _close("field-probe-layout", got_z, z, 1e-12)
    flags = np.array([r[3] for r in rows[1:]])
    if not np.array_equal(flags == "hole", oracles.in_hole(problem, z)):
        raise Failed("field-hole-mask",
                     mismatched=int(np.count_nonzero((flags == "hole")
                                                     != oracles.in_hole(problem, z))))
    if not np.isin(flags, ("ok", "band", "hole")).all():
        raise Failed("field-unknown-flag")
    u = np.array([float(r[2]) if r[2] else np.nan for r in rows[1:]])
    ok, band = flags == "ok", flags == "band"
    _close("field-ok-values", u[ok], oracles.rational(problem, z[ok]).real)
    if not np.isfinite(u[band]).all():
        raise Failed("field-band-nonfinite")
    return {"band_probes": int(band.sum())}


# ------------------------------------------------------------- workloads


def cli_argv(w: Workload, paths: dict, n: int, out: Path, probes: int, command=None):
    argv = [command or w.kind, "--region", str(paths["region"]),
            "--coeff", str(paths["coeff"]), "--n", str(n), "--out", str(out)]
    if w.reads_data and command is None:
        argv += ["--data", str(paths["data"])]
    if w.kind == "eval-field" and command is None:
        argv.append(f"--field-grid=-6,6,{probes},-6,6,{probes}")
    return argv


def run_cli(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
            runner: Runner, tally: Tally) -> None:
    n = w.smoke_n if smoke else w.n
    probes = w.smoke_probes if smoke else w.probes
    problem = inputs.make_problem(getattr(inputs, w.holes)(), seed, constants=w.constants)
    paths = inputs.write_problem(problem, runner.workdir / "inputs", with_data=w.reads_data)
    check = {"solve-dirichlet": check_dirichlet, "verify": check_verify,
             "eval-field": lambda *a: check_field(*a, probes)}[w.kind]
    python = [sys.executable]

    def operation(traced: bool) -> Proc:
        work = runner.next_dir()
        out, spans_path = work / "out", work / "spans.json"
        argv = cli_argv(w, paths, n, out, probes)
        if traced:
            argv = [str(BENCH / "spans.py"), "--spans", str(spans_path), "--"] + argv
        else:
            argv = ["-m", "gnk.cli"] + argv
        proc = runner.run(python + argv, work)
        tally.attempted += 1
        try:
            facts = check(problem, n, proc, out)
        except Failed as exc:
            tally.fail(exc)
            facts = {}
        if traced and spans_path.exists():
            records = json.loads(spans_path.read_text())
            tally.layers.append((records, {
                "cli.output_bytes": sum(p.stat().st_size for p in out.iterdir()),
                "cli.band_probes": facts.get("band_probes", 0)}))
        for key, value in facts.items():
            if key.startswith("max_diff"):
                tally.notes.append(f"{key}={value}")
        return proc

    def setup_sample() -> None:
        work = runner.next_dir()
        out = work / "out"
        proc = runner.run(python + ["-m", "gnk.cli"]
                          + cli_argv(w, paths, n, out, probes, "index-report"), work)
        try:
            check_index_report(problem, n, proc, out)
        except Failed as exc:
            tally.setup_failures[exc.reason] += 1
        tally.setup_s.append(proc.wall_s)

    # Set-up samples alternate with the operations, so that they spread over
    # the whole run as the operation samples do and both see the same
    # swings in machine speed.
    start = time.perf_counter()
    while True:
        if trace:
            tally.walls["untraced"].append(operation(False).wall_s)
            tally.walls["traced"].append(operation(True).wall_s)
        else:
            setup_sample()
            proc = operation(False)
            tally.op_s.append(proc.wall_s)
            tally.rss_mb.append(proc.rss_mb)
        if time.perf_counter() - start >= seconds or runner.expired():
            break
    while not trace and len(tally.setup_s) < SETUP_REPEATS["cli"]:
        setup_sample()


def run_batch(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
              runner: Runner, tally: Tally) -> None:
    n = w.smoke_n if smoke else w.n
    root = runner.workdir / "inputs"
    for kind, problems in inputs.batch_problems(seed).items():
        for k, problem in enumerate(problems):
            inputs.write_problem(problem, root / f"{kind}-{k}")

    def worker(setups: int, secs: float, traced: bool = False):
        work = runner.next_dir()
        argv = [sys.executable, str(BENCH / "batch.py"), "--inputs", str(root),
                "--seed", str(seed), "--n", str(n), "--setups", str(setups),
                "--seconds", str(secs)]
        if traced:
            argv += ["--spans", str(work / "spans.json")]
        proc = runner.run(argv, work)
        try:
            _exit_ok(proc)
            result = json.loads((proc.out / "stdout").read_text().splitlines()[-1])
        except Failed as exc:
            tally.setup_failures[exc.reason] += 1
            tally.notes.append(f"batch worker: {exc.detail}")
            return proc, None
        tally.attempted += result["attempted"]
        tally.failures.update(result["failures"])
        tally.setup_failures.update(result["setup_failures"])
        return proc, result

    if not trace:
        proc, result = worker(SETUP_REPEATS["batch"], seconds)
        if result:
            tally.setup_s += result["setup_s"]
            tally.op_s += result["rounds_s"]
            tally.rss_mb.append(proc.rss_mb)
            for kind in ("regular", "minnorm"):
                if result[f"{kind}_s"]:
                    rate = 1.0 / statistics.median(result[f"{kind}_s"])
                    tally.notes.append(f"{kind}_solves_per_s={rate:.4f} "
                                       f"(median of {len(result[f'{kind}_s'])} solves)")
        return
    start = time.perf_counter()
    while True:
        plain, _ = worker(1, 0.0)
        traced, result = worker(1, 0.0, traced=True)
        tally.walls["untraced"].append(plain.wall_s)
        tally.walls["traced"].append(traced.wall_s)
        if result:
            tally.layers.append((json.loads((traced.out / "spans.json").read_text()),
                                 {"cli.output_bytes": 0, "cli.band_probes": 0}))
        if time.perf_counter() - start >= seconds or runner.expired():
            break


# --------------------------------------------------------------- metrics

WINDING = ("geometry.winding_number", "geometry.winding_of_point",
           "geometry._turns_about_points")
SELF_TIMES = {
    "geometry.validate_region_s": ("geometry.validate_region",),
    "geometry.winding_s": WINDING,
    "coefficient.index_of_s": ("coefficient.index_of",),
    "kernels.complex_kernel_matrix_s": ("kernels.complex_kernel_matrix",),
    "discrete.assemble_N_s": ("discrete.assemble_N",),
    "discrete.nullity_s": ("discrete.nullity",),
    "discrete.operator_identity_residuals_s": ("discrete.operator_identity_residuals",),
    "rhp.solve_ie_s": ("rhp.solve_ie",),
    "rhp.compute_h_s": ("rhp.compute_h",),
    "rhp.verify_Sminus_s": ("rhp.verify_Sminus",),
    "rhp.cauchy_eval_s": ("rhp.cauchy_eval",),
    "rhp.boundary_distance_s": ("rhp.boundary_distance",),
    "rhp.plemelj_boundary_s": ("rhp.plemelj_boundary",),
    "rhp.load_boundary_data_s": ("rhp.load_boundary_data",),
    "mobius.kernel_invariance_check_s": ("mobius.kernel_invariance_check",),
    "mobius.mapped_index_of_s": ("mobius.mapped_index_of",),
    "dirichlet.solve_modified_dirichlet_s": ("dirichlet.solve_modified_dirichlet",),
    "cli.hole_mask_s": ("cli._hole_mask",),
}
CALLS = {
    "geometry.sample_calls": "geometry.sample",
    "coefficient.sample_calls": "coefficient.sample",
    "kernels.matrix_builds": "kernels.complex_kernel_matrix",
    "discrete.svd_calls": "discrete.nullity",
    "discrete.apply_M_calls": "discrete.apply_M",
    "discrete.identity_minus_N_calls": "discrete.identity_minus_N",
}
WORK_SUMS = {"kernels.kernel_entries": "kernels.complex_kernel_matrix",
             "rhp.cauchy_pairs": "rhp.cauchy_eval"}
WORK_MAX = {"discrete.svd_max_order": "discrete.nullity"}
PEAKS = {"discrete.assemble_N_peak_mb": "discrete.assemble_N",
         "rhp.cauchy_eval_peak_mb": "rhp.cauchy_eval",
         "mobius.kernel_invariance_check_peak_mb": "mobius.kernel_invariance_check"}


def layer_metrics(records: list[dict], extra: dict) -> dict:
    """Per-layer figures of one traced unit of work."""
    self_s, calls = defaultdict(float), Counter()
    work_sum, work_max, peak = Counter(), Counter(), defaultdict(float)
    for r in records:
        name = r["name"]
        self_s[name] += r["self_s"]
        calls[name] += 1
        work_sum[name] += r["work"]
        work_max[name] = max(work_max[name], r["work"])
        peak[name] = max(peak[name], r["peak_mb"])
    out = {metric: sum(self_s[s] for s in names) for metric, names in SELF_TIMES.items()}
    # the CLI's own work: every cli span except the hole mask, less its children
    out["cli.self_s"] = sum((v for k, v in self_s.items()
                             if k.startswith("cli.") and k != "cli._hole_mask"), 0.0)
    out.update({metric: calls[s] for metric, s in CALLS.items()})
    out.update({metric: work_sum[s] for metric, s in WORK_SUMS.items()})
    out.update({metric: work_max[s] for metric, s in WORK_MAX.items()})
    out.update({metric: peak[s] for metric, s in PEAKS.items()})
    out.update(extra)
    return out


def summarize(tally: Tally, trace: bool, spec: dict) -> tuple[dict, list[str]]:
    warnings = []
    if not trace:
        values = {"setup_s": tally.setup_s, "peak_rss_mb": tally.rss_mb, "op_s": tally.op_s}
        names = spec["end_to_end"]
        medians = {k: statistics.median(v) for k, v in values.items() if v}
    else:
        names = spec["per_layer"]
        per_unit = [layer_metrics(records, extra) for records, extra in tally.layers]
        medians = {}
        for key in (per_unit[0] if per_unit else {}):
            samples = [u[key] for u in per_unit]
            if key.endswith("_s") or key.endswith("_mb"):
                medians[key] = statistics.median(samples)
            else:
                # counts must repeat exactly between units
                if len(set(samples)) > 1:
                    warnings.append(f"count {key} differs between units: {samples}")
                medians[key] = samples[0]
        for label in ("untraced", "traced"):
            if tally.walls[label]:
                medians[f"trace.{label}_wall_s"] = statistics.median(tally.walls[label])
    metrics = {}
    for entry in names:
        if entry["name"] in medians:
            metrics[entry["name"]] = {"value": medians[entry["name"]], "unit": entry["unit"]}
        else:
            warnings.append(f"metric {entry['name']} was not measured")
    return metrics, warnings


def stage_table(records: list[dict], rows: int = 15) -> list[str]:
    """The spans of one traced unit with the most inclusive time, by name."""
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for r in records:
        total[r["name"]] += r["end"] - r["start"]
        own[r["name"]] += r["self_s"]
        calls[r["name"]] += 1
    top = sorted(total, key=total.get, reverse=True)[:rows]
    return [f"span {name}: calls={calls[name]} inclusive_s={total[name]:.4f} "
            f"self_s={own[name]:.4f}" for name in top]


# ------------------------------------------------------------------ main


def blas_description(threads: int) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    return (f"nproc={len(os.sched_getaffinity(0))} numpy={np.__version__} "
            f"blas={name} blas_threads={threads} python={sys.version.split()[0]}")


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
                 threads: int, spec: dict) -> dict:
    runs = BENCH / ".runs"
    runs.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{w.name}-", dir=runs) as tmp:
        runner = Runner(threads, Path(tmp))
        tally = Tally()
        (run_batch if w.kind == "batch" else run_cli)(
            w, seed, seconds, trace, smoke, runner, tally)
    metrics, warnings = summarize(tally, trace, spec)
    unexpected = {r: c for r, c in tally.failures.items() if r not in KNOWN_FAULTS}
    correct = not unexpected and not tally.setup_failures and not warnings
    for note in tally.notes:
        print(f"# {w.name}: {note}")
    for label, samples in (("setup_s", tally.setup_s), ("op_s", tally.op_s),
                           *((f"{k}_wall_s", v) for k, v in tally.walls.items())):
        if samples:
            print(f"# {w.name}: {label} samples " + " ".join(f"{x:.3f}" for x in samples))
    if tally.layers:
        for line in stage_table(tally.layers[0][0]):
            print(f"# {w.name}: {line}")
    for reason, count in sorted(tally.failures.items()):
        kind = "known fault" if reason in KNOWN_FAULTS else "UNEXPECTED"
        print(f"# {w.name}: failed {count}x {reason} ({kind})")
    for reason, count in sorted(tally.setup_failures.items()):
        print(f"# {w.name}: set-up failed {count}x {reason}")
    for warning in warnings:
        print(f"# {w.name}: {warning}")
    return {"correct": correct, "attempted": tally.attempted,
            "failed": sum(tally.failures.values()), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, both modes, tiny sizes, one round")
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="BLAS threads per child (default min(2, nproc))")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "gnk" / "__init__.py").is_file():
        sys.stderr.write(f"no gnk sources under {SRC}; run from a full checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    threads = min(args.blas_threads or 2, nproc)
    seed = args.seed % 2**63
    print(f"# {blas_description(threads)}")

    if args.smoke:
        ok = True
        for w in WORKLOADS.values():
            for trace in (False, True):
                t0 = time.perf_counter()
                result = run_workload(w, seed, 0.0, trace, True, threads, spec)
                ok &= result["correct"]
                print(f"# smoke {w.name} trace={int(trace)} "
                      f"{time.perf_counter() - t0:.1f}s: {json.dumps(result)}")
        print(json.dumps({"smoke": "ok" if ok else "FAILED"}))
        return 0 if ok else 1

    result = run_workload(WORKLOADS[args.workload], seed, float(args.seconds),
                          bool(args.trace), False, threads, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
