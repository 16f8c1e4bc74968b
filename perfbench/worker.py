"""One benchmark process: set up a workload, run it closed-loop, check every output.

Started by ``run.py`` from the root of a checkout; it prints ``READY`` once
set-up is done and, unless ``--setup-only``, a JSON report as its last line.
One caller, no worker threads: each operation starts when the previous one
has returned.  A round runs every slot of the workload once, and the timed
phase runs whole rounds until ``--seconds`` have passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (loads scipy's own BLAS before the pin check)
import scipy.optimize  # noqa: E402,F401

import majorep as mj  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the workload whose operations exercise each layer; other workloads measure it on a probe
NATIVE = {"stellar": "constellations", "slocc": "constellations", "geomeasure": "entangle",
          "marginals": "reconstruct", "states": "reconstruct"}


# ----------------------------------------------------------------- environment
def blas_threads() -> dict[str, int]:
    """Thread count reported by every OpenBLAS library mapped into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "majorep": mj.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


# ------------------------------------------------------------------ the loop
class Record:
    __slots__ = ("op", "round", "slot", "item", "latency", "out", "error")

    def __init__(self, op, rnd, slot, item):
        self.op, self.round, self.slot, self.item = op, rnd, slot, item
        self.latency, self.out, self.error = 0.0, None, None


def timed_phase(slots, run, calls, seconds: float, tracer=None, first_op: int = 0):
    """Whole rounds of ``slots``, closed loop, until ``seconds`` have passed.

    Returns the records, the wall time and the number of rounds.
    """
    records: list[Record] = []
    start = time.perf_counter()
    rnd = 0
    while True:
        for slot in slots:
            rec = Record(first_op + len(records), rnd, slot, slot.pool[rnd % len(slot.pool)])
            if tracer is not None:
                tracer.op = rec.op
                span = tracer.begin("op", "bench")
            t0 = time.perf_counter()
            try:
                rec.out = run(calls, rec.item)
            except Exception as exc:  # a raised error is a failed operation
                rec.error = f"{type(exc).__name__}: {exc}"
            rec.latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(span)
                tracer.op = -1
            records.append(rec)
        rnd += 1
        if time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start, rnd


def check_all(work, records) -> list[wl.Outcome]:
    outcomes = []
    for rec in records:
        if rec.error is not None:
            outcomes.append(wl.Outcome(False, "error", {"error": rec.error}))
        else:
            outcomes.append(work.check(rec.item, rec.out))
    return outcomes


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    xs = sorted(latencies)
    k = len(xs)
    if k <= 10:
        return xs[-1], 100.0
    return xs[k - 11], 100.0 * (k - 10) / k


def typical_throughput(records) -> float:
    """Operations per second with every input at its class's median latency.

    One input in ten or so costs ten times its class median and decides the
    plain rate of a run, which then swings by a third between seeds.
    """
    classes = {}
    for r in records:
        classes.setdefault(r.slot.cls, []).append(r.latency)
    return len(records) / sum(statistics.median(v) * len(v) for v in classes.values())


def end_to_end(work, records, wall: float, rounds: int) -> tuple[dict, dict]:
    ms = [r.latency * 1e3 for r in records]
    tail_ms, tail_pct = tail(ms)
    groups, classes = {}, {}
    for r in records:
        groups.setdefault(r.slot.group, []).append(r.latency * 1e3)
        classes.setdefault(r.slot.cls, []).append(r.latency * 1e3)
    # per-input cost within a degenerate family is bimodal, so a median over the
    # mixed group jumps between families; each family's median is steady
    group_of = {r.slot.cls: r.slot.group for r in records}
    special = [statistics.median(v) for c, v in classes.items() if group_of[c] == "degenerate"]
    who = resource.RUSAGE_CHILDREN if work.name == "pipeline" else resource.RUSAGE_SELF
    metrics = {
        "throughput_per_s": typical_throughput(records),
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": tail_ms,
        "small_n_ms": statistics.median(groups["small"]),
        "large_n_ms": statistics.median(groups["large"]),
        "degenerate_ms": statistics.geometric_mean(special),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    detail = {
        "timed_s": wall,
        "rounds": rounds,
        "phase_throughput_per_s": len(records) / wall,
        "tail_percentile": tail_pct,
        "samples": len(records),
        "group_samples": {g: len(v) for g, v in groups.items()},
        "class_median_ms": {c: statistics.median(v) for c, v in classes.items()},
        "class_samples": {c: len(v) for c, v in classes.items()},
        "class_latencies_ms": classes,
    }
    return metrics, detail


def failures(records, outcomes) -> dict:
    failed = [(r, o) for r, o in zip(records, outcomes) if not o.ok]
    kinds = {}
    for r, o in failed:
        key = f"{o.info.get('family', r.slot.cls)}:{o.kind}"
        kinds[key] = kinds.get(key, 0) + 1
    # the package's multiplicity defect on degenerate families: measured, not gated
    defects = {}
    for o in outcomes:
        if o.info.get("defect"):
            key = f"{o.info['family']}:{o.info['defect']}"
            defects[key] = defects.get(key, 0) + 1
    base = sum(1 for r in records if r.slot.known_defect)
    return {"attempted": len(records), "failed": len(failed),
            "failure_rate": len(failed) / len(records), "by_class": kinds,
            "known_defect": {"operations": base, "wrong": sum(defects.values()),
                             "rate": sum(defects.values()) / base if base else 0.0,
                             "by_family": defects}}


# --------------------------------------------------------------- per-layer
def layer_metrics(spans, records, outcomes, rounds: int, rdm_full_s: float,
                  checked=()) -> dict:
    """Per-layer numbers from one traced phase; times are seconds per round.

    Ratios and residuals also count ``checked``: (record, outcome) pairs of
    untraced operations, such as a workload's ``after`` slots.
    """
    by_sid = {s.sid: s for s in spans}

    def parent_name(s):
        p = by_sid.get(s.parent)
        return p.name if p is not None else ""

    def total(pred):
        return sum(s.t1 - s.t0 for s in spans if pred(s)) / rounds

    first_round = {r.op for r in records if r.round == 0}

    def count_round0(pred):
        return float(sum(1 for s in spans if s.op in first_round and pred(s)))

    selfs = tracing.self_times(spans)
    mp = [s.t1 - s.t0 for s in spans if s.name == "majorana_points"]
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) / rounds for layer in tracing.LAYERS}
    out.update({
        "stellar.majorana_points.busy_s": sum(mp) / rounds,
        "stellar.majorana_points.p50_ms": statistics.median(mp) * 1e3 if mp else 0.0,
        "stellar.state_from_constellation.busy_s":
            total(lambda s: s.name == "state_from_constellation"),
        "slocc.classify.self_s": total(lambda s: s.name == "classify")
            - total(lambda s: s.name == "majorana_points" and parent_name(s) == "classify"),
        "slocc.apply_ilo.busy_s": total(lambda s: s.name == "apply_ilo"),
        "geomeasure.geometric_measure.busy_s": total(lambda s: s.name == "geometric_measure"),
        "geomeasure.grid_s": total(lambda s: s.name == "overlap_landscape" and s.size >= 1024),
        "geomeasure.seeding_s": total(lambda s: s.name == "majorana_points"
                                      and parent_name(s) == "geometric_measure"),
        "geomeasure.ascent_s": total(lambda s: s.name == "minimize"
                                     and parent_name(s) == "geometric_measure"),
        "geomeasure.ascent_calls": count_round0(lambda s: s.name == "minimize"
                                                and parent_name(s) == "geometric_measure"),
        "geomeasure.landscape_evals": count_round0(lambda s: s.name == "overlap_landscape"),
        "marginals.reconstruct.busy_s":
            total(lambda s: s.name == "reconstruct_from_two_marginals"),
        "marginals.eigensolve_s": total(lambda s: s.name == "eigenpairs"),
        "marginals.to_computational_s": total(lambda s: s.name == "to_computational"),
        "marginals.gauge_fit_s": total(lambda s: s.name == "minimize"
                                       and parent_name(s) == "reconstruct_from_two_marginals"),
        "marginals.gauge_fit_calls": count_round0(
            lambda s: s.name == "minimize" and parent_name(s) == "reconstruct_from_two_marginals"),
        "marginals.rdm_full_s": rdm_full_s,
    })
    pairs = list(zip(records, outcomes)) + list(checked)
    rebuild = [o.info["rebuild"] for _, o in pairs if "rebuild" in o.info]
    labels = [o.info["labels_ok"] for r, o in pairs
              if "labels_ok" in o.info and r.slot.known_defect]
    expected = sum(o.info.get("expected", 0) for o in outcomes)
    out["stellar.rebuild_residual_max"] = max(rebuild) if rebuild else 0.0
    out["slocc.label_ok_base"] = float(2 * len(labels))
    out["slocc.label_ok_ratio"] = sum(labels) / (2 * len(labels)) if labels else 0.0
    out["geomeasure.cpp_expected"] = float(expected)
    out["geomeasure.cpp_recall"] = (sum(o.info.get("found", 0) for o in outcomes) / expected
                                    if expected else 0.0)
    return out


def traced_run(work, name, seconds, seed, base_tput, checked) -> tuple[dict, dict, list, list]:
    """Traced phase of the workload, plus probes for the layers it does not reach."""
    tracer = tracing.Tracer()
    tracer.install()
    calls = wl.Calls()
    for attr in vars(calls):
        setattr(calls, attr, tracer.wrap(getattr(calls, attr), attr))
    records, _, rounds = timed_phase(work.slots, work.run, calls, seconds, tracer)
    outcomes = check_all(work, records)
    ops = {r.op: f"{name}:{r.slot.cls}" for r in records}
    phase_spans = list(tracer.spans)
    metrics = layer_metrics(phase_spans, records, outcomes, rounds,
                            sum(getattr(work, "rdm_full_s", [])), checked)
    metrics["trace.overhead"] = base_tput / typical_throughput(records)
    op_time = sum(r.latency for r in records)
    metrics["trace.op_s"] = op_time / rounds
    metrics["trace.unattributed_s"] = tracing.self_times(phase_spans).get("bench", 0.0) / rounds
    metrics["trace.spans"] = float(len(phase_spans))
    sources = {}
    all_records, all_outcomes = list(records), list(outcomes)
    probes = sorted({w for w in NATIVE.values() if w != name})
    for i, probe_name in enumerate(probes, start=1):
        probe = wl.WORKLOADS[probe_name](np.random.default_rng([seed, 7]), smoke=True)
        start = len(tracer.spans)
        precs, _, _ = timed_phase(probe.slots, probe.run, calls, 0.0, tracer,
                                  first_op=10**6 * i)
        pouts = check_all(probe, precs)
        ops.update({r.op: f"probe:{probe_name}:{r.slot.cls}" for r in precs})
        pm = layer_metrics(tracer.spans[start:], precs, pouts, 1,
                           sum(getattr(probe, "rdm_full_s", [])))
        for key, value in pm.items():
            if NATIVE.get(key.split(".", 1)[0]) == probe_name:
                metrics[key] = value
                sources[key] = f"probe:{probe_name}"
        all_records += precs
        all_outcomes += pouts
    tracer.uninstall()
    os.makedirs(".perfbench", exist_ok=True)
    tracer.write(f".perfbench/spans-{name}-seed{seed}.tsv.gz", ops)
    return metrics, sources, all_records, all_outcomes


def roots_ratio(seed: int, smoke: bool) -> dict:
    """Median of majorana_points time over np.roots time on the same polynomial."""
    rng = np.random.default_rng([seed, 11])
    out = {}
    for n, count in ((8, 2), (32, 1), (64, 1)) if smoke else ((8, 15), (32, 5), (64, 3)):
        ratios = []
        for _ in range(count):
            s = mj.random_symmetric_state(n, rng)
            t0 = time.perf_counter()
            mj.majorana_points(s)
            t1 = time.perf_counter()
            np.roots(mj.majorana_polynomial(s)[::-1])
            ratios.append((t1 - t0) / (time.perf_counter() - t1))
        out[f"stellar.majorana_points.roots_ratio.n{n}"] = statistics.median(ratios)
    return out


def general_ilo(seed: int, smoke: bool) -> dict:
    """classify after a general invertible map (``random_ilo``) on random states."""
    rng = np.random.default_rng([seed, 19])
    times, ok = [], 0
    for n in (8, 16) if smoke else (16,) * 8 + (32,) * 4:
        s = mj.apply_ilo(mj.random_symmetric_state(n, rng), mj.random_ilo(rng))
        t0 = time.perf_counter()
        ok += mj.classify(s).mults == (1,) * n
        times.append(time.perf_counter() - t0)
    return {"slocc.general_ilo.p50_ms": statistics.median(times) * 1e3,
            "slocc.general_ilo.label_ok_ratio": ok / len(times),
            "slocc.general_ilo.base": float(len(times))}


def serialize_times(seed: int, reps: int = 40) -> dict:
    """Median per-call time of the serialize layer on the pipeline's documents."""
    from majorep import serialize

    rng = np.random.default_rng([seed, 13])
    dnk = mj.dnk_state(6, 2, 0.6, 0.8)
    states = [mj.random_symmetric_state(8, rng), mj.ghz_state(4), dnk]
    densities = [mj.rdm_full(mj.expand_to_full(dnk), range(1, 6)),
                 mj.rdm_full(mj.expand_to_full(dnk), range(2, 7))]

    def per_call(fn, args):
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for a in args:
                fn(a)
            samples.append((time.perf_counter() - t0) / len(args))
        return statistics.median(samples)

    state_docs = [serialize.state_to_dict(s) for s in states]
    density_docs = [serialize.density_to_dict(d) for d in densities]
    return {
        "serialize.state_to_dict_s": per_call(serialize.state_to_dict, states),
        "serialize.state_from_dict_s": per_call(serialize.state_from_dict, state_docs),
        "serialize.density_to_dict_s": per_call(serialize.density_to_dict, densities),
        "serialize.density_from_dict_s": per_call(serialize.density_from_dict, density_docs),
    }


def cli_times(name, work, seed) -> tuple[dict, object, list]:
    """Fresh-interpreter import time and per-subcommand wall time of CLI children.

    Outside ``pipeline`` the children come from one probe round of it, which
    is returned with its records so that they are checked too.
    """
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import majorep.cli"], env=env, check=True,
                       timeout=120)
        imports.append(time.perf_counter() - t0)
    extra = []
    if name != "pipeline":  # the pipeline's own traced phase already ran the children
        work = wl.Pipeline(np.random.default_rng([seed, 17]), smoke=True)
        extra, _, _ = timed_phase(work.slots, work.run, None, 0.0)
    walls = {}
    for sub, wall in work.children:
        walls.setdefault(sub, []).append(wall * 1e3)
    # every chain starts with one gen child, so a round of the four chains has four
    out = {"cli.import_s": statistics.median(imports),
           "cli.self_s": sum(sum(v) for v in walls.values()) / 1e3 / (len(walls["gen"]) / 4)}
    for sub in ("gen", "points", "classify", "entangle", "rdm", "reconstruct"):
        out[f"cli.{sub}.wall_ms"] = statistics.median(walls[sub])
    return out, work, extra


# ------------------------------------------------------------------- main
def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the self-tests")
    args = ap.parse_args()

    threads = blas_threads()
    if any(t != 1 for t in threads.values()) or not all(os.environ.get(v) == "1"
                                                        for v in BLAS_VARS):
        print(f"BLAS is not pinned to one thread: {threads}", file=sys.stderr)
        return 4

    rng = np.random.default_rng(args.seed)
    work = wl.WORKLOADS[args.workload](rng, smoke=args.smoke)
    calls = wl.Calls()
    work.warm_up(calls, np.random.default_rng([args.seed, 3]))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    records, wall, rounds = timed_phase(work.slots, work.run, calls, args.seconds)
    metrics, detail = end_to_end(work, records, wall, rounds)
    after, _, _ = timed_phase(work.after, work.run, calls, 0.0, first_op=-10**6)
    detail["after_ms"] = {r.slot.cls: r.latency * 1e3 for r in after}
    records += after
    outcomes = check_all(work, records)
    report = {"environment": environment(args.seed), "end_to_end": detail}
    after_pairs = list(zip(records, outcomes))[len(records) - len(after):]
    if args.trace:
        if args.workload == "pipeline":
            work.children.clear()
        layer, sources, trecs, touts = traced_run(work, args.workload, args.seconds, args.seed,
                                                  metrics["throughput_per_s"], after_pairs)
        layer.update(roots_ratio(args.seed, args.smoke))
        layer.update(general_ilo(args.seed, args.smoke))
        layer.update(serialize_times(args.seed))
        cli, pwork, precs = cli_times(args.workload, work, args.seed)
        layer.update(cli)
        trecs += precs
        touts += check_all(pwork, precs)
        report["per_layer_sources"] = sources
        report["traced"] = failures(trecs, touts)
        records, outcomes = records + trecs, outcomes + touts
        metrics = layer
    fail = failures(records, outcomes)
    report["failures"] = fail
    print(json.dumps({"correct": fail["failed"] == 0, "attempted": fail["attempted"],
                      "failed": fail["failed"], "metrics": metrics, "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
