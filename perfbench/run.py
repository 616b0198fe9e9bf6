"""Paper-query benchmark for genex: a closed loop with a single client.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload gen-search --seed 1 --seconds 20 --trace 0

The client sends one query, waits for its verdict, checks nothing yet, and
only then sends the next.  Each query is answered by a fresh interpreter
(``worker.py``), as a command-line call would answer it, so caches start cold
for every query and peak RSS belongs to that query.  The client never imports
genex: it draws the seeded inputs, and after the loop it checks every verdict
against the frozen answers in ``expected.json`` and every witness with the
independent closures in ``verify.py``.

Before each query the client times a fixed calibration loop; the end-to-end
times are scaled by the loop's reference time over its mean in the run, which
cancels the shared host's speed drift (raw times are printed too).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and the same pass twice traced (each query again in a fresh
interpreter), prints the per-layer metrics of the first traced pass and the
tracing overhead, compares the work counters and witness hashes of the two
traced passes, and writes the spans to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import summarize  # noqa: E402
from verify import closure, mul, witness_hash  # noqa: E402
from workloads import WORKLOADS, make_instance  # noqa: E402

QUERY_LIMIT_S = 30.0  # a verdict later than this is a failed query
SETUP_LIMIT_S = 120.0  # a worker not ready by then means the program is broken
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it
# Mean time of calibrate() on the reference machine (2-vCPU Xeon VM, CPython
# 3.11.7) in its faster stretches; end-to-end times are scaled to this speed.
CAL_REF_S = 0.006
REPEAT_COUNTERS = ("gensets.search_nodes", "gensets.search_pruned", "group.chain_builds",
                   "structure.lattice_classes", "perm.mul_calls", "perm.inv_calls")


class HarnessError(RuntimeError):
    """The benchmark could not run the program at all (no result is printed)."""


def _pump(stream, lines):
    for line in stream:
        lines.put(line)
    lines.put(b"")


def _read_line(lines, limit_s):
    """Next stdout line of the worker, or None if none arrives in time."""
    try:
        line = lines.get(timeout=limit_s)
    except queue.Empty:
        return None
    return json.loads(line) if line else None


def run_query(query, trace: bool) -> dict:
    """One closed-loop step: start a worker, wait until it is set up, send the
    query, and time the wait for the verdict."""
    fixtures = [query["main"], *query["others"]]
    cmd = [sys.executable, str(HERE / "worker.py"), "--trace", str(int(trace)),
           "--fixtures", *fixtures]
    verdict = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
    lines = queue.Queue()
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    reader.start()
    try:
        ready = _read_line(lines, SETUP_LIMIT_S)
        setup_s = time.perf_counter() - t0
        if not ready or not ready.get("ready"):
            raise HarnessError(f"worker for query {query['id']} did not get ready "
                               f"(exit code {proc.poll()})")
        t1 = time.perf_counter()
        proc.stdin.write((json.dumps(query) + "\n").encode())
        proc.stdin.flush()
        verdict = _read_line(lines, QUERY_LIMIT_S)
        verdict_s = time.perf_counter() - t1
        if verdict is None:
            why = (f"no verdict within {QUERY_LIMIT_S} s" if verdict_s >= QUERY_LIMIT_S
                   else "the worker stopped before its verdict")
            return {"setup_s": setup_s, "verdict_s": verdict_s, "verdict": None,
                    "error": why, "post": {}}
        post = _read_line(lines, SETUP_LIMIT_S)
        if post is None:
            raise HarnessError(f"worker for query {query['id']} stopped after its verdict")
        return {"setup_s": setup_s, "verdict_s": verdict_s, "verdict": verdict,
                "error": verdict.get("error"), "post": post}
    finally:
        proc.stdin.close()
        if proc.poll() is None and verdict is None:
            proc.kill()
        proc.wait()  # the worker exits once it has printed its last line
        reader.join()
        proc.stdout.close()


# ---------------------------------------------------------------------------
# verdict checks, all outside the timed region and independent of genex

class Checker:
    def __init__(self, expected):
        self.exp = expected

    def order(self, name):
        return self.exp["order"][name]["value"]

    def _generates(self, gens, model, name):
        """The tuple lies in G and its closure has |G| elements."""
        elements = closure(model["gens"], model["degree"])
        return (all(tuple(g) in elements for g in gens)
                and len(closure([tuple(g) for g in gens], model["degree"])) == self.order(name))

    def check(self, query, model, verdict) -> str | None:
        """None when the verdict is right and its certificate holds, else why not."""
        kind, main, others = query["kind"], query["main"], query["others"]
        if kind == "d":
            want = self.exp["d"][main]["value"]
            gens = model["gens"]
            abelian = all(mul(a, b) == mul(b, a) for a in gens for b in gens)
            if verdict["d"] != want or abelian or len(verdict["witness"]) != want:
                return f"d = {verdict['d']}, expected {want}"
            if not self._generates(verdict["witness"], model, main):
                return "d witness does not generate G"
        elif kind == "dm":
            want = self.exp["d_metric"][f"{main}/{others[0]}"]["value"]
            if verdict["value"] != want:
                return f"D_M = {verdict['value']}, expected {want}"
            slots = verdict["in_subgroup"]
            inside = closure(model["others"][0], model["degree"])
            if (slots != list(range(want))
                    or any(tuple(verdict["witness"][i]) not in inside for i in slots)):
                return "D_M witness slots are not in M"
            if not self._generates(verdict["witness"], model, main):
                return "D_M witness does not generate G"
        elif kind == "lattice":
            want = self.exp["lattice"][main]
            got = {k: verdict[k] for k in ("classes", "maximal", "frattini_order")}
            if got != {k: want[k] for k in got}:
                return f"lattice {got} differs from {want}"
        elif kind == "density":
            want = self.exp["density"][f"{main}/{others[0]}"]
            fav = want["favorable"][model["coset"]]
            if verdict["total"] != want["total"] or verdict["favorable"] != fav:
                return f"density {verdict}, expected {fav}/{want['total']}"
        elif kind == "replacement":
            if verdict["pair"] is None:
                return "replacement search found no pair"
            v1, v2 = (tuple(v) for v in verdict["pair"])
            g1, g2 = model["pair"]
            N = closure(model["others"][0], model["degree"])
            H = closure(model["others"][1], model["degree"])
            if v1 not in N or v2 not in N or mul(v1, g1) not in H:
                return "replacement pair is not in N or v1 g1 is not in Htilde"
            if not self._generates([mul(v1, g1), mul(v2, g2)], model, main):
                return "replacement pair does not generate G"
        elif kind == "chain":
            if verdict["order"] != self.order(main):
                return f"order {verdict['order']}, expected {self.order(main)}"
            if verdict["members"] != model["members"]:
                wrong = sum(a != b for a, b in zip(verdict["members"], model["members"]))
                return f"{wrong} membership answers are wrong"
        return None


def calibrate() -> float:
    """Time of a fixed loop of tuple permutation products and dict inserts,
    the kind of work genex does; run by the client between queries."""
    p = tuple(range(1, 12)) + (0,)
    q = tuple(reversed(range(12)))
    seen = {}
    x = p
    t0 = time.perf_counter()
    for i in range(4000):
        x = tuple(map((q if i % 2 else p).__getitem__, x))
        seen[x] = i
    return time.perf_counter() - t0


def run_pass(instances, trace: bool, calibration=None):
    results = []
    for q, _ in instances:
        if calibration is not None:
            calibration.append(calibrate())
        results.append(run_query(q, trace))
    return results


def judge(instances, results, checker):
    """(failed count, wrong count, messages) for one list of results."""
    failed = wrong = 0
    messages = []
    for (query, model), res in zip(instances, results):
        if res["error"] is not None:
            failed += 1
            if res["verdict"] is not None:  # raised, as opposed to timed out
                wrong += 1
            messages.append(f"query {query['id']} ({query['kind']} {query['main']}): "
                            f"{res['error']}")
            continue
        why = checker.check(query, model, res["verdict"])
        if why is None and res["post"]["roundtrip"] is False:
            why = "a fixture does not round-trip through grpfmt"
        if why is not None:
            failed += 1
            wrong += 1
            messages.append(f"query {query['id']} ({query['kind']} {query['main']}): {why}")
    return failed, wrong, messages


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it, or None when there are too few samples."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return None
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(results, calibration):
    """End-to-end metrics, plus report lines for the raw times and the verdict
    percentiles.

    The host's speed drifts: one run's work took 11 s or 20 s within ten
    minutes.  So the two times are scaled to the reference speed by
    ``CAL_REF_S / mean(calibration)``, where ``calibration`` holds the times
    of a fixed loop the client ran before each query.  The percentiles are
    printed but not bounded: a query under a second runs in a fast or a slow
    stretch of the host, so an order statistic of a few such queries flips
    between the two from run to run.
    """
    verdict_ms = [r["verdict_s"] * 1000 for r in results]
    suite = sum(r["verdict_s"] for r in results)
    setup = statistics.median(r["setup_s"] for r in results)
    speed = CAL_REF_S / statistics.fmean(calibration)
    metrics = {
        "setup_s": setup * speed,
        "suite_s": suite * speed,
        # a query killed at the limit reports no RSS
        "peak_rss_mb": max(r["post"].get("maxrss_kb", 0) for r in results) / 1024.0,
    }
    n = len(results)
    notes = [f"raw: suite {suite:.6g} s (time to verdict summed over {n} queries), "
             f"setup {setup:.6g} s (median over {n} fresh interpreters)",
             f"scaled by {speed:.6g} = {CAL_REF_S} s / {statistics.fmean(calibration):.6g} s, "
             f"the mean of {len(calibration)} calibration loops",
             f"verdict_p50_ms: {statistics.median(verdict_ms):.6g} ms over {n} queries"]
    high = tail(verdict_ms)
    if high is None:
        notes.append(f"verdict_tail_ms: needs more than {TAIL_BEYOND} queries")
    else:
        notes.append(f"verdict_tail_ms: {high[0]:.6g} ms, the p{high[1]:.1f} over {n} queries")
    return metrics, notes


def traced_run(workload, seed, checker, out_dir):
    templates = WORKLOADS[workload]["templates"]
    instances = [make_instance(workload, seed, i) for i in range(len(templates))]
    plain = run_pass(instances, trace=False)
    first = run_pass(instances, trace=True)
    second = run_pass(instances, trace=True)
    exports = [r["post"]["trace"] for r in first if r["post"].get("trace")]
    metrics = summarize(exports)
    repeat = summarize([r["post"]["trace"] for r in second if r["post"].get("trace")])
    mismatches = [k for k in REPEAT_COUNTERS if metrics[k] != repeat[k]]
    for (query, _), a, b in zip(instances, first, second):
        if witness_hash(a["verdict"]) != witness_hash(b["verdict"]):
            mismatches.append(f"witness of query {query['id']}")
    plain_s = sum(r["verdict_s"] for r in plain)
    traced_s = sum(r["verdict_s"] for r in first)
    metrics["trace.untraced_suite_s"] = plain_s
    metrics["trace.traced_suite_s"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics["trace.repeat_mismatches"] = len(mismatches)

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "queries": [{"id": q["id"], "kind": q["kind"], "main": q["main"],
                                "trace": r["post"].get("trace")}
                               for (q, _), r in zip(instances, first)]}, fh)

    results = plain + first + second
    failed, wrong, messages = judge(instances * 3, results, checker)
    want_classes = sum(checker.exp["lattice"][q["main"]]["classes"]
                       for q, _ in instances if q["kind"] == "lattice")
    if metrics["structure.lattice_classes"] != want_classes:
        wrong += 1
        messages.append(f"structure.lattice_classes = {metrics['structure.lattice_classes']},"
                        f" expected {want_classes}")
    notes = [f"nondeterministic across two traced passes: {m}" for m in mismatches]
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    notes.append(f"gensets.prune_ratio base: {metrics['gensets.search_nodes']} search nodes; "
                 f"gensets.builds_per_node base: {metrics['group.chain_builds']} chain builds")
    return metrics, notes, len(results), failed, wrong, messages


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "genex" / "__init__.py").is_file():
        print(f"run.py: no genex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    checker = Checker(json.loads((HERE / "expected.json").read_text(encoding="utf-8")))
    try:
        if args.trace:
            metrics, notes, attempted, failed, wrong, messages = traced_run(
                args.workload, args.seed, checker, HERE / "out")
        else:
            templates = WORKLOADS[args.workload]["templates"]
            passes = max(1, round(args.seconds / WORKLOADS[args.workload]["pass_s"]))
            instances = [make_instance(args.workload, args.seed, i)
                         for i in range(passes * len(templates))]
            calibration = []
            results = run_pass(instances, trace=False, calibration=calibration)
            failed, wrong, messages = judge(instances, results, checker)
            metrics, notes = end_to_end(results, calibration)
            attempted = len(results)
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3

    units = {k: _unit(k) for k in metrics}
    for msg in messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} queries, {failed} failed, "
          f"failed_frac {failed / attempted:.4f}")
    for k in metrics:
        print(f"  {k} = {metrics[k]:.6g} {units[k]}")
    for note in notes:
        print(f"  note: {note}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in metrics}}))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio") or name.endswith("_per_node"):
        return "ratio"
    if name == "grpfmt.bytes_parsed":
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
