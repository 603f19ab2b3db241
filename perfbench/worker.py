"""One workload in one single-threaded process, as a closed loop.

Started by run.py; prints one JSON object on its last stdout line.  The
set-up interval starts at the top of this file, before sphlie is imported,
and ends when the workload's inputs and expected answers exist.  Then whole
passes over the items run back to back, each item starting when the one
before it has finished, until ``--seconds`` have gone by (at least one
pass).  Each item is timed in seconds and in host-reference slices
(hostref.py).  With ``--trace 1`` the passes alternate untraced and
traced, so the trace overhead is measured against untraced passes of the
same process.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports sphlie: part of set-up)
from hostref import HostReference  # noqa: E402
from metrics import per_layer_values  # noqa: E402
from spantrace import Tracer  # noqa: E402

MAX_REPORTED_FAILURES = 20


def run_pass(items, ref, tracer=None, first_id=0):
    """Run every item once.  Returns ((seconds, reference slice seconds)
    per item, failures); an item that raises is counted once as failed and
    the pass goes on.  Traced items are not interrupted by reference
    sampling, which would land in their spans."""
    times, failures = [], []
    for k, item in enumerate(items):
        try:
            with ref.timed(sample=tracer is None) as took:
                if tracer is None:
                    result = item.run()
                else:
                    with tracer.item_span(item.label, first_id + k):
                        result = item.run()
        except Exception as exc:  # a failed item must not stop the run
            times.append((took["seconds"], took["ref_s"]))
            failures.append((item.label, f"raised {exc!r}"))
            continue
        times.append((took["seconds"], took["ref_s"]))
        try:
            problems = item.check(result)
        except Exception as exc:  # a check that cannot run is a failure
            problems = [f"check raised {exc!r}"]
        if problems:
            failures.append((item.label, "; ".join(problems)))
    return times, failures


def closed_loop(items, seconds: float, ref, tracer=None):
    """Passes until ``seconds`` have elapsed.  Returns (untraced passes,
    traced passes, failures); a pass is its list of item times."""
    untraced, traced, failures = [], [], []
    start = perf_counter()
    while True:
        times, fails = run_pass(items, ref)
        untraced.append(times)
        failures += fails
        if tracer is not None:
            times, fails = run_pass(items, ref, tracer,
                                    first_id=len(traced) * len(items))
            traced.append(times)
            failures += fails
        if perf_counter() - start >= seconds:
            return untraced, traced, failures


def end_to_end(passes) -> dict:
    """Per-item medians over the passes, in reference slices (``*_ref``)
    and in seconds (``*_s``): the wall metric is their sum, the slowest
    item metric the largest.  Taking the median item by item keeps a slow
    spell that hits part of one pass out of both."""
    per_item = list(zip(*passes))
    in_ref = [statistics.median(s / r for s, r in t) for t in per_item]
    in_s = [statistics.median(s for s, _ in t) for t in per_item]
    return {"wall_ref": sum(in_ref), "slowest_item_ref": max(in_ref),
            "wall_s": sum(in_s), "slowest_item_s": max(in_s)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="directory for the generated problem files")
    parser.add_argument("--spans", type=Path,
                        help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true",
                        help="report the set-up time and stop")
    args = parser.parse_args(argv)

    golden = workloads.load_golden()
    items = workloads.build_items(args.workload, args.seed, args.workdir,
                                  golden)
    setup_s = perf_counter() - _START
    out = {"setup_s": setup_s, "items": [i.label for i in items]}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        ref = HostReference()
        untraced, traced, failures = closed_loop(items, args.seconds, ref,
                                                 tracer)
        attempted = len(items) * (len(untraced) + len(traced))
        out.update({
            "passes": len(untraced),
            "traced_passes": len(traced),
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:MAX_REPORTED_FAILURES],
            "item_times": untraced,
            "end_to_end": end_to_end(untraced),
            "ref_slice_s": statistics.median(ref.slices),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        if tracer is not None:
            overhead = (end_to_end(traced)["wall_ref"]
                        / out["end_to_end"]["wall_ref"])
            out["per_layer"] = per_layer_values(
                tracer.summary(), tracer.counters, len(traced), overhead)
            out["self_time_violations"] = tracer.item_self_check()
            out["spans"] = len(tracer.spans)
            if args.spans is not None:
                args.spans.parent.mkdir(parents=True, exist_ok=True)
                tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
