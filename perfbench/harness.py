"""Measurement, verification and metric assembly for one benchmark run.

Imported by run.py after it has pinned BLAS to one thread and put the
checkout's src/ on the import path.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import elsakit
import reference
import workloads
from tracer import Tracer

SETUP_REPS = 5  # warm-up requests; setup_s reports their median
MIN_COVERAGE = 0.9
# Per-layer metrics derived from call counts and operand shapes, not from clocks.
COMPUTED = frozenset({
    "attention.calls", "attention.heads", "attention.useful_head_ratio", "attention.flop",
    "matrix.matmul_calls", "matrix.copy_calls", "matrix.result_bytes", "maskmove.mask_calls",
    "netcomp.invsqr_points", "netcomp.invsqr_useful_ratio", "netcomp.invsqr_temp_bytes",
    "netcomp.component_calls", "netcomp.skip_mul_calls", "netcomp.skip_mul_flop",
})


class Outcomes:
    """Requests attempted and failed, over warm-up and measured requests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, wl, inputs):
        """Run one untraced request; return (latency ns, output, check) or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            out = wl.request(inputs)
        except Exception:  # a raising request is a failed request; keep measuring
            self.failed += 1
            traceback.print_exc()
            return None
        latency = time.perf_counter_ns() - t0
        check = wl.check(inputs, out)
        if not check.ok:
            self.failed += 1
            print(f"check failed: deviation {check.deviation!r}", file=sys.stderr)
            return None
        return latency, out, check


def run_record(args, root: Path) -> dict:
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": None, "blas_threads": None, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "git_commit": git_commit(root),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["blas_threads"] = fn()
                return record
    return record


def git_commit(root: Path):
    """HEAD of the checkout, read without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup(wl, seed, tally, ref):
    """Warm up SETUP_REPS times; return each rep's seconds and the reference times around them."""
    reps, ref_ms = [], [ref.ms()]
    for k in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = wl.inputs(seed, 1, k)
        tally.attempt(wl, inputs)
        reps.append(time.perf_counter() - t0)
        ref_ms.append(ref.ms())
    return reps, ref_ms


def end_to_end(wl, args, tally) -> dict:
    """Timed requests until the deadline; latencies are scaled to reference speed."""
    ref = reference.Reference()
    raw, ref_ms = [], [ref.ms()]
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        result = tally.attempt(wl, wl.inputs(args.seed, 0, i))
        i += 1
        raw.append(result[0] / 1e6 if result is not None else np.nan)
        ref_ms.append(ref.ms())
    raw = np.array(raw)
    ok = ~np.isnan(raw)
    lat = (raw * reference.speed_factors(ref_ms))[ok]
    if not lat.size:
        lat = np.array([np.nan])
    if ok.any():
        print(f"# {int(ok.sum())} verified timed requests; raw latency p50 "
              f"{np.percentile(raw[ok], 50):.4f} ms, p90 {np.percentile(raw[ok], 90):.4f} ms; "
              f"reference work p50 {np.median(ref_ms):.4f} ms (REF_MS {reference.REF_MS})")
    return {
        "requests_per_s": int(ok.sum()) / (np.sum(lat) / 1e3),
        "latency_p50_ms": float(np.percentile(lat, 50)),
        "latency_p90_ms": float(np.percentile(lat, 90)),
        "verified_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(wl, args, tally, out_dir: Path) -> tuple[bool, dict]:
    tracer = Tracer("elsakit", workloads.HOOKS)

    def traced_request(inputs, request_id):
        tracer.install()
        try:
            tracer.begin()
            out = wl.request(inputs)
            return out, tracer.end(request_id)
        finally:
            tracer.restore()

    traces, floors, deviations, lat_u, lat_t, indices = [], [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        inputs = wl.inputs(args.seed, 0, i)
        result = tally.attempt(wl, inputs)
        if result is not None:
            latency, out, check = result
            try:
                out_t, trace = traced_request(inputs, i)
            except Exception:
                tally.failed += 1
                traceback.print_exc()
            else:
                if wl.fingerprint(out_t) != wl.fingerprint(out):
                    tally.failed += 1
                    print(f"request {i}: traced output differs from untraced", file=sys.stderr)
                traces.append(trace)
                indices.append(i)
                floors.append(wl.floor_ns(inputs, out))
                deviations.append(check.deviation)
                lat_u.append(latency)
                lat_t.append(trace.duration_ns)
        i += 1
    if not traces:
        return False, {}

    # Same seed, same request, so the computed counts must repeat exactly.
    _, again = traced_request(wl.inputs(args.seed, 0, indices[0]), i)
    repeat = again.calls == traces[0].calls and again.counts == traces[0].counts
    if not repeat:
        print(f"calls or counts differ between two traced runs of request {indices[0]}",
              file=sys.stderr)
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"trace-{wl.name}.npz"
    tracer.save(spans_file)
    print(f"# traced requests: {len(traces)}, spans kept: {spans_file}")

    metrics = layer_metrics(wl, traces, floors, deviations, lat_u, lat_t)
    covered = metrics["trace.coverage"] >= MIN_COVERAGE
    if not covered:
        print(f"trace coverage {metrics['trace.coverage']:.3f} < {MIN_COVERAGE}", file=sys.stderr)
    return repeat and covered, metrics


def layer_metrics(wl, traces, floors, deviations, lat_u, lat_t) -> dict:
    """Per-layer metrics: medians over traced requests of per-request values."""

    def med(f):
        return float(np.median([f(t) for t in traces]))

    def ratio(a, b):
        return a / b if b else 0.0

    def total_ms(*names):
        return med(lambda t: sum(t.total_ns.get(n, 0) for n in names) / 1e6)

    def calls(*names):
        return med(lambda t: sum(t.calls.get(n, 0) for n in names))

    def per_call_us(*names):
        return med(lambda t: ratio(sum(t.total_ns.get(n, 0) for n in names),
                                   sum(t.calls.get(n, 0) for n in names)) / 1e3)

    def count(key):
        return med(lambda t: t.counts.get(key, 0))

    def self_ms(layer):
        return med(lambda t: t.self_ns[layer] / 1e6)

    heads = ("attention.lsa_forward", "attention.elsa_forward")
    floor = float(np.median(floors))
    m = {
        "pipeline.build_ms": total_ms("pipeline.build_designed_weights", "pipeline.build_designed_input",
                                      "pipeline.build_enumerated_weights", "pipeline.build_enumerated_input"),
        "pipeline.step_us.lsa": per_call_us("pipeline.step_designed"),
        "pipeline.step_us.elsa": per_call_us("pipeline.step_enumerated"),
        "pipeline.readout_us": per_call_us("pipeline.readout_designed", "pipeline.readout_enumerated"),
        "pipeline.verify_ms": total_ms("ridge.gd_run", "ridge.ridge_closed_form"),
        "pipeline.self_ms": self_ms("pipeline"),
        "attention.calls": calls("attention.multihead_forward"),
        "attention.heads": calls(*heads),
        "attention.useful_head_ratio": med(lambda t: ratio(t.counts.get("attention.useful_heads", 0),
                                                           sum(t.calls[n] for n in heads))),
        "attention.self_ms": self_ms("attention"),
        "attention.flop": count("attention.flop"),
        "attention.gflop_per_s": med(lambda t: ratio(t.counts.get("attention.flop", 0),
                                                     t.inclusive_ns["attention"])),
        "matrix.matmul_calls": calls("matrix.matmul"),
        "matrix.matmul_ms": total_ms("matrix.matmul"),
        "matrix.copy_calls": calls(*workloads.COPIES),
        "matrix.result_bytes": count("matrix.result_bytes"),
        "matrix.self_ms": self_ms("matrix"),
        "maskmove.selector_ms": total_ms("maskmove.mskmov_selectors"),
        "maskmove.mask_calls": calls("maskmove.mask_matrix"),
        "maskmove.mask_ms": total_ms("maskmove.mask_matrix"),
        "maskmove.self_ms": self_ms("maskmove"),
        "ridge.eta_ms": total_ms("ridge.stable_eta_for"),
        "ridge.self_ms": self_ms("ridge"),
        "netcomp.invsqr_ms": total_ms("netcomp.invsqr_eval"),
        "netcomp.invsqr_points": count("netcomp.invsqr_points"),
        "netcomp.invsqr_useful_ratio": med(lambda t: ratio(t.counts.get("netcomp.invsqr_useful", 0),
                                                           t.counts.get("netcomp.invsqr_points", 0))),
        "netcomp.invsqr_temp_bytes": count("netcomp.invsqr_temp_bytes"),
        "netcomp.component_calls": calls("netcomp.component_forward"),
        "netcomp.component_ms": total_ms("netcomp.component_forward"),
        "netcomp.skip_mul_calls": calls("netcomp.skip_mul"),
        "netcomp.skip_mul_ms": total_ms("netcomp.skip_mul"),
        "netcomp.skip_mul_flop": count("netcomp.skip_mul_flop"),
        "netcomp.self_ms": self_ms("netcomp"),
        "gauss.forward_ms": total_ms("gauss.forward_eliminate_step"),
        "gauss.backward_ms": total_ms("gauss.backward_substitute_step"),
        "gauss.self_ms": self_ms("gauss"),
        "trace.coverage": med(lambda t: t.coverage),
        "trace.overhead_frac": float(np.median(lat_t) / np.median(lat_u)) - 1.0,
    }
    worst = float(np.max(deviations))  # NaN-propagating
    ridge_kind = wl.kind == "ridge"
    gd_us = floor / 1e3 if ridge_kind else 0.0
    m["ridge.gd_step_us"] = gd_us
    m["ridge.floor_ratio.lsa"] = ratio(m["pipeline.step_us.lsa"], gd_us)
    m["ridge.floor_ratio.elsa"] = ratio(m["pipeline.step_us.elsa"], gd_us)
    m["ridge.max_step_dev"] = worst if ridge_kind else 0.0
    m["gauss.oracle_us"] = 0.0 if ridge_kind else floor / 1e3
    m["gauss.floor_ratio"] = 0.0 if ridge_kind else float(np.median(lat_u)) / floor
    m["gauss.rel_error_max"] = 0.0 if ridge_kind else worst
    return m


def main(args, root: Path, import_s: float) -> int:
    src = root / "src" / "elsakit"
    if Path(elsakit.__file__).resolve().parent != src:
        print(f"imported elsakit from {elsakit.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("# run " + json.dumps(run_record(args, root), sort_keys=True))
    tally = Outcomes()
    reps, setup_ref_ms = setup(wl, args.seed, tally, reference.Reference())
    if args.trace:
        correct, values = traced(wl, args, tally, root / ".perfbench")
    else:
        values = end_to_end(wl, args, tally)
        raw_setup = import_s + float(np.median(reps))
        values["setup_s"] = raw_setup * reference.REF_MS / float(np.median(setup_ref_ms))
        print(f"# raw setup {raw_setup:.4f} s: imports {import_s:.4f} s, "
              f"warm-up reps {[round(r, 4) for r in reps]} s")
        print(f"# failed_frac = {tally.failed / tally.attempted} frac")
        correct = True
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"], float("nan"))
        label = " (computed)" if entry["name"] in COMPUTED else ""
        print(f"# {entry['name']} = {value} {entry['unit']}{label}")
        if not np.isfinite(value):
            print(f"{entry['name']} is not finite", file=sys.stderr)
            correct, value = False, 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = bool(correct and tally.failed == 0)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}, allow_nan=False))
    return 0 if correct else 1
