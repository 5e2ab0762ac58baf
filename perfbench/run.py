"""Closed-loop benchmark of mucofix.

    python3 perfbench/run.py --workload lemmas|solve-docs|solve-tables|subtype|all
                             --seed N --seconds S --trace 0|1

One client and no threads: each request starts only after the previous
one has returned. Requests call mucofix.cli.main in-process with stdout
captured (solve-tables calls the solver API), so a request is timed
without interpreter start-up. The timed phase runs whole passes over a
fixed cycle of requests, as many as come nearest to --seconds, so every
run sees the same request mix.

--trace 0 reports the end-to-end metrics. Their times are scaled to a
reference CPU speed: a fixed calibration kernel runs, untimed, before
and after every request and set-up round, and each time is rescaled to what it
would be where that kernel takes measure.CAL_REF_S, because a shared
virtual machine's CPU speed can drift twofold over minutes. The times as
measured are printed and kept in the details file.

--trace 1 alternates untraced and traced passes: the traced ones patch
span wrappers around the public functions of every mucofix module (see
layers.py) and report per-layer metrics per request, as measured; the
untraced ones give the tracing overhead. Every request is checked against a reference outside the
timed interval; for seeds listed in stdout_sha256.json the stdout bytes
are checked too. `--pin-stdout` records those hashes for --seed.

Each workload's report ends with one JSON line with the keys correct,
attempted, failed and metrics; `--workload all` runs the four in turn.
Run from a checkout of the repository: mucofix is imported from its
src directory, and every file written goes under perfbench/out.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:             # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench import workloads
from perfbench.layers import Patch
from perfbench.measure import CAL_REF_S, Tracer, at_reference, calibrate, latency_summary

OUT = Path("perfbench", "out")              # relative to ROOT, the working directory
PINS = Path("perfbench", "stdout_sha256.json")
REQUEST_LIMIT_S = 15.0
SETUP_REPS = 5
HARD_STOP_FACTOR = 3                         # end a pass early past 3x --seconds of wall time

WORKLOADS = ("lemmas", "solve-docs", "solve-tables", "subtype")
LEMMA_ROWS = ("L1-continuous", "L2-monotone", "L2-continuous", "L3-monotone",
              "L4-continuous", "L5-continuous", "L6-continuous", "L7-monotone",
              "SFP-monotone")
CALL_SELF_LAYERS = (
    "lattice.validate_lattice", "lattice.product", "lattice.bounds",
    "textio.parse_lattice_doc", "genfun.monotone_witness", "genfun.continuity_witness",
    "genfun.MutualPair", "simpoints.component_sets", "simpoints.fibers",
    "simpoints.point_tests", "verifier.gen_lattice", "verifier.gen_monotone_pair",
    "demos.generator_f", "demos.generator_g",
)


class RequestTimeout(BaseException):
    'Raised by the alarm when one request passes REQUEST_LIMIT_S.'


def _alarm(signum, frame):
    raise RequestTimeout()


def refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_mucofix():
    'Import mucofix afresh, so that each set-up repetition pays for the import.'
    for name in [n for n in sys.modules if n == "mucofix" or n.startswith("mucofix.")]:
        del sys.modules[name]
    mucofix = importlib.import_module("mucofix")
    importlib.import_module("mucofix.cli")
    return mucofix


def git_commit() -> str:
    'The commit of a git checkout, read from its files; "unknown" outside one.'
    git = ROOT / ".git"
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
    return "unknown"


def machine_info() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit()}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def timed_request(workload, mucofix, req, tracer=None):
    'One request: (latency_s, ok, stdout, error). Only the program call is timed.'
    signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    start = time.perf_counter()
    try:
        if tracer is None:
            text, ok = workload.run(mucofix, req)
        else:
            text, ok = tracer.call("request", False, workload.run, (mucofix, req))
        latency = time.perf_counter() - start
        error = None if ok else "non-zero exit code"
    except RequestTimeout:
        latency, text, ok, error = time.perf_counter() - start, "", False, "time limit"
    except Exception as exc:     # a request that raises is a failed request
        latency, text, ok = time.perf_counter() - start, "", False
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if ok and latency > REQUEST_LIMIT_S:
        ok, error = False, "time limit"
    return latency, ok, text, error


def make_workload(name: str):
    return {"lemmas": workloads.Lemmas, "solve-docs": workloads.SolveDocs,
            "solve-tables": workloads.SolveTables,
            "subtype": lambda: workloads.Subtype(ROOT)}[name]()


class Bench:
    """One workload at one seed: set-up rounds and timed passes.

    A set-up round imports mucofix afresh, writes the inputs and runs one
    untimed warm-up request. Of the SETUP_REPS rounds, one precedes the
    timed phase and the others follow its first passes, so their median
    sees the same machine as the passes do. Records are [key, latency_s,
    ok, stdout sha256, error, calibration_s]: the calibration kernel runs
    just before and just after each request and each set-up round, outside
    their timing, and calibration_s is the mean of the two."""

    def __init__(self, workload, seed: int, seconds: float, out: Path):
        self.workload, self.seed, self.seconds, self.out = workload, seed, seconds, out
        self.setups: list[tuple[float, float]] = []     # (seconds, calibration seconds)
        self.records: list[list] = []
        self.outputs: dict[str, str] = {}
        self.timed_s = 0.0
        self.last_pass_s = 0.0
        self.started = time.perf_counter()
        self.set_up()

    def set_up(self):
        before = calibrate()
        start = time.perf_counter()
        self.mucofix = import_mucofix()
        rng = random.Random(f"{self.workload.name}:{self.seed}")
        self.reqs = self.workload.build(self.mucofix, rng, self.out)
        timed_request(self.workload, self.mucofix, self.reqs[0])
        self.setups.append((time.perf_counter() - start, (before + calibrate()) / 2))

    def over(self) -> bool:
        """True when one more pass would end further from --seconds of timed
        passes than stopping now, or past the hard stop on the wall clock."""
        return (self.timed_s + self.last_pass_s / 2 >= self.seconds
                or time.perf_counter() - self.started > HARD_STOP_FACTOR * self.seconds)

    def one_pass(self, tracer=None) -> tuple[float, int]:
        'Run the cycle once, or until the hard stop; returns the summed request time and count.'
        start = time.perf_counter()
        total = 0.0
        count = 0
        for req in self.reqs:
            count += 1
            if tracer is not None:
                tracer.request = len(self.records)
            before = calibrate()
            latency, ok, text, error = timed_request(self.workload, self.mucofix, req, tracer)
            total += latency
            cal = (before + calibrate()) / 2
            self.records.append([req.key, latency, ok, sha(text), error, cal])
            if ok:
                self.outputs.setdefault(req.key, text)
            if time.perf_counter() - self.started > HARD_STOP_FACTOR * self.seconds:
                break
        self.last_pass_s = time.perf_counter() - start
        self.timed_s += self.last_pass_s
        return total, count

    def between_passes(self):
        if len(self.setups) < SETUP_REPS:
            self.set_up()


def check(workload, reqs, bench: Bench, seed: int) -> dict:
    """Mark every record that differs from its reference, from the first
    good output of its request, or from the stdout hash pinned for this seed."""
    errors = dict(workload.errors([r for r in reqs if r.key in bench.outputs], bench.outputs))
    first = {key: sha(text) for key, text in bench.outputs.items()}
    pinned = json.loads(PINS.read_text()).get(workload.name, {}).get(str(seed)) \
        if PINS.is_file() else None
    for key, digest in first.items():
        if pinned is not None and pinned.get(key) != digest:
            errors.setdefault(key, "stdout differs from the pinned sha256")
    for rec in bench.records:
        if rec[2] and rec[3] != first[rec[0]]:
            rec[2], rec[4] = False, "stdout differs from the first run of this request"
        elif rec[2] and rec[0] in errors:
            rec[2], rec[4] = False, errors[rec[0]]
    return {"pinned_seed": pinned is not None, "errors": errors}


def per_layer(tracer, requests: int, overhead_s: float, overhead_frac: float) -> dict:
    'Per-request figures of every layer; zero where a layer never ran.'
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value / requests if unit != "ratio" else value, "unit": unit}
    for layer in CALL_SELF_LAYERS:
        calls, self_s, _ = tracer.layer(layer)
        put(f"{layer}.calls", calls, "calls/request")
        put(f"{layer}.self_s", self_s, "s/request")
    calls, _, total = tracer.layer("solvers.ensure_monotone")
    put("solvers.ensure_monotone.calls", calls, "calls/request")
    put("solvers.ensure_monotone.total_s", total, "s/request")
    for layer in ("solvers.direct", "solvers.tarski_oracle", "solvers.product"):
        put(f"{layer}.self_s", tracer.layer(layer)[1], "s/request")
    put("solvers.product.iterations", tracer.counts["solvers.product.iterations"], "steps/request")
    calls, self_s, _ = tracer.layer("solvers.kleene_implicit")
    put("solvers.kleene_implicit.calls", calls, "calls/request")
    put("solvers.kleene_implicit.self_s", self_s, "s/request")
    put("solvers.kleene_implicit.iterations",
        tracer.counts["solvers.kleene_implicit.iterations"], "steps/request")
    for row in LEMMA_ROWS:
        put(f"verifier.check_lemma.{row}.total_s",
            tracer.layer(f"verifier.check_lemma.{row}")[2], "s/request")
    gcp = "verifier.gen_continuous_pair"
    calls = tracer.layer(gcp)[0]
    exhausted = tracer.errors[(gcp, "GenerationExhausted")]
    draws = tracer.edges[(gcp, "verifier.gen_monotone_pair")]
    put(f"{gcp}.calls", calls, "calls/request")
    put(f"{gcp}.accept_ratio", (calls - exhausted) / draws if draws else 0.0, "ratio")
    put(f"{gcp}.failed", exhausted, "count/request")
    mine = "verifier.mine_counterexample"
    put(f"{mine}.total_s", tracer.layer(mine)[2], "s/request")
    put(f"{mine}.tried", tracer.counts[f"{mine}.tried"], "tries/request")
    put(f"{mine}.exhaustive_tried", tracer.counts[f"{mine}.exhaustive_tried"], "tries/request")
    put("demos.solve_subtyping.self_s", tracer.layer("demos.solve_subtyping")[1], "s/request")
    put("demos.build_universe.self_s", tracer.layer("demos.build_universe")[1], "s/request")
    put("cli.main.self_s", tracer.layer("cli.main")[1], "s/request")
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s/request"}
    out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "ratio"}
    return out


def end_to_end(summary: dict, busy_s: float, setup_times, peak_rss_mb: float) -> dict:
    'The end-to-end metrics from a latency summary, the summed request time and set-up times.'
    return {
        "ops_per_s": {"value": (summary["requests"] - summary["failed"]) / busy_s, "unit": "1/s"},
        "latency_p50_s": {"value": summary["p50_s"], "unit": "s"},
        "latency_tail_s": {"value": summary["tail_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }


def write_spans(path: Path, tracer):
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["id", "parent", "request", "name", "start_s", "end_s",
                              "hot_calls_and_self_s"],
                   "spans": tracer.spans}, fh)


def pin_stdout(workload, seed: int, out: Path):
    'Run each request of the cycle once and record its stdout sha256 for this seed.'
    bench = Bench(workload, seed, float("inf"), out)
    bench.one_pass()
    errors = workload.errors(bench.reqs, bench.outputs)
    failed = [rec for rec in bench.records if not rec[2]]
    if errors or failed:
        refuse(f"not pinning: {errors or failed}")
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pins.setdefault(workload.name, {})[str(seed)] = {k: sha(t) for k, t in bench.outputs.items()}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(bench.outputs)} stdout hashes of {workload.name} seed {seed}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    'Measure one workload, print its report and return its result line.'
    workload = make_workload(name)
    out = OUT / f"{name}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, seed, seconds, out)
    tracer = None
    pass_pairs = []
    if trace:
        tracer = Tracer()
        patch = Patch(tracer)
        while not bench.over():
            plain = bench.one_pass()
            patch.apply()
            try:
                traced = bench.one_pass(tracer)
            finally:
                patch.restore()
            tracer.record = False        # spans are kept for the first traced pass only
            pass_pairs.append((plain, traced))
            bench.between_passes()
    else:
        while not bench.over():
            bench.one_pass()
            bench.between_passes()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(bench.setups) < SETUP_REPS:
        bench.set_up()

    reqs = bench.reqs
    checks = check(workload, reqs, bench, seed)
    probe = None
    if hasattr(workload, "probe_known_defect"):
        probe = workload.probe_known_defect(
            bench.mucofix, random.Random(f"{name}:{seed}:probe"), out)
    summary = latency_summary([(at_reference(r[1], r[5]), r[2]) for r in bench.records],
                              REQUEST_LIMIT_S)
    raw_summary = latency_summary([(r[1], r[2]) for r in bench.records], REQUEST_LIMIT_S)
    attempted, failed = summary["requests"], summary["failed"]
    busy_s = sum(at_reference(r[1], r[5]) for r in bench.records)
    setup_times = [at_reference(t, cal) for t, cal in bench.setups]
    raw = end_to_end(raw_summary, bench.timed_s, [t for t, _ in bench.setups], peak_rss_mb)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_info(), "load": "closed loop, one client, no threads",
              "cycle": [r.key for r in reqs], "timed_s": bench.timed_s,
              "calibration_ref_s": CAL_REF_S, "summary": summary, "raw_summary": raw_summary,
              "raw_metrics": raw, "checks": checks, "known_defect": probe,
              "setups_s_and_calibration_s": bench.setups,
              "records_key_s_ok_error_calibration_s": [
                  [k, round(lat, 6), ok, err, round(cal, 7)]
                  for k, lat, ok, _, err, cal in bench.records]}

    print(f"perfbench {name} seed={seed} trace={int(trace)}: closed loop, one client, no threads")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in result["machine"].items()))
    print(f"requests: {attempted} in {len(bench.records) // len(reqs)} whole passes over a "
          f"cycle of {len(reqs)}, {bench.timed_s:.2f} s timed")
    if trace:
        traced_requests = sum(n for _, (_, n) in pass_pairs)
        # per-request mean of each traced pass against the untraced pass before it
        means = [(p / pn, t / tn) for (p, pn), (t, tn) in pass_pairs]
        overhead_s = statistics.median(t - p for p, t in means)
        overhead_frac = statistics.median(t / p - 1 for p, t in means)
        metrics = per_layer(tracer, traced_requests, overhead_s, overhead_frac)
        spans = OUT / f"spans-{name}-seed{seed}.json.gz"
        write_spans(spans, tracer)
        result["spans_file"] = str(spans)
        print(f"per-layer figures per traced request ({traced_requests} traced, and "
              f"{len(pass_pairs)} untraced passes for the overhead); "
              "waiting time: none, there is no queue and no second thread")
    else:
        metrics = end_to_end(summary, busy_s, setup_times, peak_rss_mb)
        tail = summary["tail_permille"]
        cal = statistics.median(r[5] for r in bench.records)
        print(f"times are at the reference speed, where the calibration kernel takes "
              f"{CAL_REF_S * 1000:g} ms; here it took {cal * 1000:.3f} ms (median)")
        print(f"latency_tail_s is p{tail / 10:g} with {summary['tail_beyond']} requests beyond it")
        print(f"failed_frac: {failed / attempted:g} ({failed} of {attempted} requests)")
        print("as measured here: " + ", ".join(
            f"{k} {m['value']:.6g} {m['unit']}" for k, m in raw.items() if k != "peak_rss_mb"))
    for metric, m in metrics.items():
        print(f"  {metric:52s} {m['value']:.6g} {m['unit']}")
    print(f"checks: {attempted - failed} of {attempted} requests match their reference"
          + ("; stdout sha256 pinned for this seed" if checks["pinned_seed"] else ""))
    for key, error in sorted(checks["errors"].items()):
        print(f"  mismatch {key}: {error}")
    if probe is not None:
        print(f"known defect, {probe['input']}: "
              + ("fixed" if probe["fixed"] else f"still fails: {probe['output']}"))
    result["metrics"] = metrics
    path = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(f"details: {path}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-stdout", action="store_true",
                        help="record the stdout sha256 of every request for --seed")
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        refuse("refusing to run under python -O: it strips the asserts in "
               "demos._check_preorder, gen_monotone_pair and enumerate_sim_fixed, "
               "so a different program would be measured")
    src = ROOT / "src"
    if not (src / "mucofix" / "__init__.py").is_file():
        refuse(f"no mucofix sources under {src}; run from a checkout of the repository")
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    mucofix = import_mucofix()
    if not Path(mucofix.__file__).resolve().is_relative_to(src.resolve()):
        refuse(f"mucofix was imported from {mucofix.__file__}, not from {src}")
    signal.signal(signal.SIGALRM, _alarm)

    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        if args.pin_stdout:
            out = OUT / f"{name}-seed{args.seed}"
            out.mkdir(parents=True, exist_ok=True)
            pin_stdout(make_workload(name), args.seed, out)
        else:
            print(json.dumps(run_workload(name, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
