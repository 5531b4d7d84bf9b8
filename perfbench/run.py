"""The repository benchmark: the whole Inf2vec pipeline on one named workload.

    python3 perfbench/run.py --workload many-users --seed 1 --seconds 4 --trace 0

Runs in one process, from the checkout root, against the library sources
in ``src/``.  With ``--trace 0`` it prints the twelve end-to-end metrics;
with ``--trace 1`` it runs the pipeline once with layer spans and
``repro.obs`` recording on and once without, and prints the per-layer
metrics.  Human-readable lines (metric, value, unit, sample count, and the
environment) come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output check passed.

Workloads and sizes: ``perfbench/workloads.py``; metric definitions and
the layer map: ``perfbench/README.md``.
"""

from __future__ import annotations

import time

ENTRY = time.perf_counter()  # setup_s counts from here, imports included

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: One closed-loop caller in one process: BLAS pools are pinned to one
#: thread (unless the caller set them) so a shared 2-core box measures the
#: program, not the scheduler.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

from workloads import NUM_SEEDS, SETUP_REPEATS, WORKLOADS  # noqa: E402  (this script's own directory)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="length of the timed query stream")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a seconds-long run (tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_library() -> None:
    """Put ``src/`` on the path; fail (non-zero, no result) if it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {src}")
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))


def environment(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------


def end_to_end(workload, seed: int, seconds: float, import_s: float):
    import numpy as np

    import pipeline
    from tracer import peak_rss_mb

    clock = time.perf_counter
    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        began = clock()
        inputs = pipeline.make_inputs(workload, seed)
        setup_times.append(clock() - began)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as work:
        result = pipeline.run_pipeline(workload, inputs, seed, seconds, Path(work))

    latencies = result.stream.latencies
    queries = latencies.shape[0]
    p99 = float(np.percentile(latencies, 99))
    ledger = result.ledger
    metrics = {
        "setup_s": metric(import_s + pipeline.median(setup_times), "s", len(setup_times)),
        "train_s": metric(result.train_s, "s", 1),
        "publish_s": metric(pipeline.median(result.publish_s), "s", len(result.publish_s)),
        "query_p50_ms": metric(np.percentile(latencies, 50) * 1e3, "ms", queries),
        "query_p99_ms": metric(p99 * 1e3, "ms", queries),
        "query_qps": metric(queries / result.stream.wall, "1/s", queries),
        "im_select_s": metric(pipeline.median(result.im_select_s), "s", len(result.im_select_s)),
        "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
        "activation_auc": metric(result.activation_auc, "ratio", 1),
        "activation_map": metric(result.activation_map, "ratio", 1),
        "im_spread": metric(pipeline.median(result.im_spread), "nodes", len(result.im_spread)),
        "success_frac": metric(
            (ledger.attempted - ledger.failed) / ledger.attempted, "ratio", ledger.attempted
        ),
    }
    notes = {
        "beyond_p99": int(np.count_nonzero(latencies > p99)),
        "final_loss": result.final_loss,
        "setup_repeats_s": setup_times,
        "publish_repeats_s": result.publish_s,
        "im_select_repeats_s": result.im_select_s,
        "im_spread_repeats": result.im_spread,
    }
    return metrics, ledger, notes


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------


def _counter(snapshot: dict, name: str, label: str | None = None) -> float:
    samples = snapshot.get(name, {}).get("samples", {})
    return float(
        sum(v for key, v in samples.items() if label is None or label in key.split(","))
    )


def _histogram_sum(snapshot: dict, name: str) -> float:
    samples = snapshot.get(name, {}).get("samples", {})
    return float(sum(state["sum"] for state in samples.values()))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload, seed: int, seconds: float, trace_path: Path):
    import numpy as np

    import pipeline
    from repro.obs import RunRecorder, recording
    from tracer import Tracer

    tracer = Tracer()
    recorder = RunRecorder(name="perfbench")
    OUT.mkdir(exist_ok=True)
    # Traced pass first, in a fresh process, so the high-water RSS rises it
    # attributes to layers are not masked by an earlier pass's peak.
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as work:
        with tracer.installed(), recording(recorder):
            pipeline.install_layer_spans(tracer)
            with tracer.span("bench.pipeline") as root:
                with tracer.span("bench.setup"):
                    inputs = pipeline.make_inputs(workload, seed)
                traced = pipeline.run_pipeline(
                    workload, inputs, seed, seconds, Path(work),
                    repeats=False, tracer=tracer,
                )
    inputs = None
    gc.collect()
    # Untraced reference pass over the same work (same stream length).
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as work:
        began = time.perf_counter()
        inputs = pipeline.make_inputs(workload, seed)
        reference = pipeline.run_pipeline(
            workload, inputs, seed, seconds, Path(work), repeats=False,
            stream_count=traced.stream.latencies.shape[0],
        )
        reference_wall = time.perf_counter() - began

    snap = recorder.metrics.snapshot()
    capped = any(
        span["attributes"].get("capped")
        for span in recorder.tracer.to_dicts()
        if span["name"] == "sketch.schedule"
    )
    t = tracer
    wall = t.duration(root)
    positives = _histogram_sum(snap, "contexts.length")
    epoch_s = t.total("core.inf2vec.epoch")
    hits = _counter(snap, "contexts.cache.hits")
    misses = _counter(snap, "contexts.cache.misses")
    queries = _counter(snap, "serve.queries")
    rr_nodes = _counter(snap, "sketch.rr_nodes")
    stream = "bench.query_stream"
    index_lat = [t.duration(i) for i in t.named("serve.service.top_influenced", stream)]
    scan_lat = [t.duration(i) for i in t.named("serve.service.top_influencers", stream)]
    model_negatives = pipeline.model_config().num_negatives
    values = {
        "data.graph_s": (t.total("data.synthetic.graph"), "s"),
        "data.cascades_s": (t.total("data.synthetic.cascades"), "s"),
        "core.context.generate_s": (t.total("core.context.generate"), "s"),
        "core.context.tuples": (_counter(snap, "contexts.tuples"), "count"),
        "core.context.positives": (positives, "count"),
        "core.context.rss_delta_mb": (t.rss_rise("core.context.generate"), "MB"),
        "core.context.cache_hit_frac": (_ratio(hits, hits + misses), "ratio"),
        "core.inf2vec.epoch_s": (epoch_s, "s"),
        "core.inf2vec.pos_per_s": (_ratio(positives, epoch_s), "1/s"),
        "core.inf2vec.rss_delta_mb": (
            t.rss_rise("core.inf2vec.fit") - t.rss_rise("core.context.generate"), "MB"
        ),
        "core.inf2vec.final_loss": (traced.final_loss, "loss"),
        "core.inf2vec.clip_rows": (_counter(snap, "train.clip.rows"), "count"),
        "core.negative.collision_frac": (
            _ratio(_counter(snap, "negatives.collisions"), positives * model_negatives),
            "ratio",
        ),
        "eval.activation_s": (t.total("eval.activation"), "s"),
        "serve.store.save_s": (t.total("serve.store.save"), "s"),
        "serve.store.open_s": (t.total("serve.store.open", "serve.service.open"), "s"),
        "serve.index.precompute_s": (t.total("serve.service.precompute"), "s"),
        "serve.index.rss_delta_mb": (t.rss_rise("serve.service.precompute"), "MB"),
        "serve.service.index_query_us": (float(np.median(index_lat)) * 1e6, "us"),
        "serve.service.scan_query_ms": (float(np.median(scan_lat)) * 1e3, "ms"),
        "serve.service.index_hit_frac": (
            _ratio(_counter(snap, "serve.queries", "path=index"), queries), "ratio"
        ),
        "serve.service.errors": (_counter(snap, "serve.query.errors"), "count"),
        "apps.influence_max.calibrate_s": (t.total("apps.influence_max.calibrate"), "s"),
        "sketch.schedule.pool_s": (t.total("sketch.schedule.pool"), "s"),
        "sketch.rrsets.rr_sets": (_counter(snap, "sketch.rr_sets"), "count"),
        "sketch.rrsets.rr_nodes": (rr_nodes, "count"),
        "sketch.rrsets.nodes_per_s": (
            _ratio(rr_nodes, t.total("sketch.rrsets.generate")), "1/s"
        ),
        "sketch.schedule.capped": (float(capped), "bool"),
        "sketch.schedule.rss_delta_mb": (t.rss_rise("sketch.schedule.pool"), "MB"),
        "sketch.select.celf_s": (t.total("sketch.select.celf"), "s"),
        "sketch.select.lazy_evals_per_seed": (
            _ratio(
                _counter(snap, "sketch.lazy_evaluations"),
                _counter(snap, "sketch.selections") * NUM_SEEDS,
            ),
            "ratio",
        ),
        "diffusion.montecarlo.eval_s": (t.total("diffusion.montecarlo.spread"), "s"),
        "obs.trace_overhead_frac": (wall / reference_wall - 1.0, "ratio"),
        "trace.unattributed_frac": (t.unattributed(root) / wall, "ratio"),
    }
    # Layer shares cover the fixed-work stages only: the time-bound stream's
    # share is set by --seconds, not by the workload.
    (stream_span,) = t.named(stream)
    self_times = t.layer_self_times(exclude=stream_span)
    fixed_wall = wall - t.duration(stream_span)
    for layer in pipeline.LAYERS:
        values[f"{layer}.self_frac"] = (self_times.get(layer, 0.0) / fixed_wall, "ratio")

    samples = {
        "serve.service.index_query_us": len(index_lat),
        "serve.service.scan_query_ms": len(scan_lat),
    }
    metrics = {
        name: metric(value, unit, samples.get(name, 1))
        for name, (value, unit) in values.items()
    }
    tracer.write(trace_path)

    ledger = pipeline.Ledger(
        attempted=traced.ledger.attempted + reference.ledger.attempted,
        failed=traced.ledger.failed + reference.ledger.failed,
        failures=traced.ledger.failures + reference.ledger.failures,
    )
    notes = {"traced_wall_s": wall, "reference_wall_s": reference_wall,
             "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, ledger, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load_library()
    import pipeline  # noqa: F401  (library import cost belongs to setup_s)

    import_s = time.perf_counter() - ENTRY
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    env = environment(args)

    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, ledger, notes = per_layer(workload, args.seed, args.seconds, trace_path)
    else:
        metrics, ledger, notes = end_to_end(workload, args.seed, args.seconds, import_s)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# notes {json.dumps(notes, sort_keys=True)}")
    for name, row in metrics.items():
        print(f"{name:<36} {row['value']:>16.6g} {row['unit']:<6} n={row['samples']}")
    for failure in ledger.failures:
        print(f"# FAILED: {failure}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": row["value"], "unit": row["unit"]}
            for name, row in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
