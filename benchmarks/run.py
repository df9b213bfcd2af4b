"""Benchmark of haltbandit: certification, Markov solves and sampling.

Run all three workloads:

    python3 benchmarks/run.py

or one of them:

    python3 benchmarks/run.py --workload tree-certify --seed 3 --seconds 30 --trace 0

Each workload runs in a process of its own that imports the program from
``src/``, builds the seeded corpus, and then makes whole passes over its
fixed op list, one op at a time, until ``--seconds`` have gone by.  This
process then checks every output against ``reference.py`` and prints the
metrics; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
adds one traced pass and prints the per-layer metrics instead.

Timings are in reference seconds: the speed of this machine's CPUs drifts
by tens of percent within a minute, so a fixed pure-Python yardstick is
timed after every op, and each op's wall time is scaled by
``YARDSTICK_S`` over the median of the yardstick times around it (see the
README).

``--record-digest`` rewrites ``digest.json`` from the current program.
"""

import time

START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGEST = BENCH / "digest.json"
SETUPS = 5  # processes whose set-up time is measured; the median is reported
CHILD_TIMEOUT = 150
YARDSTICK_S = 0.002  # nominal yardstick time: timings are scaled to this speed
WINDOW = 1  # yardstick samples on each side of an op used to scale it

# A failed op is one the program aborts or whose own check reports a
# failure.  These signatures are the faults the README names; any other
# failure makes the run incorrect.
KNOWN_FAULTS = {
    "nh-certify": lambda op, status, text: status == "reported" and op["payout"] == "NH",
    "float-stop-set": lambda op, status, text: status == "raised"
    and text.startswith("SolverError: stop-set iteration did not settle"),
    "deep-recursion": lambda op, status, text: status == "raised" and text.startswith("RecursionError"),
}


def yardstick() -> float:
    """Wall time of a fixed pure-Python job: dict and tuple work, integer
    and Fraction arithmetic, the program's own mix."""
    t = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = (i, i & 15)
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    frac = Fraction(0)
    for i in range(1, 80):
        frac += Fraction(1, i)
    return time.perf_counter() - t


def scaled(times: list[float], sticks: list[float]) -> list[float]:
    """Each time in reference seconds, from the yardstick samples near it."""
    out = []
    for j, t in enumerate(times):
        near = sticks[max(0, j - WINDOW) : j + WINDOW + 1]
        out.append(t * YARDSTICK_S / statistics.median(near))
    return out


# ---------------------------------------------------------------------------
# Workload process


def run_pass(op_list: list[dict], run_op) -> dict:
    """One op after another, each followed by a yardstick."""
    out: dict = {"times": [], "sticks": [], "status": [], "texts": []}
    for op in op_list:
        t = time.perf_counter()
        try:
            text, reported = run_op(op)
            status = "reported" if reported else "ok"
        except Exception as exc:  # an op the program aborts is a failed op
            text, status = f"{type(exc).__name__}: {exc}", "raised"
        out["times"].append(time.perf_counter() - t)
        out["sticks"].append(yardstick())
        out["status"].append(status)
        out["texts"].append(text)
    return out


def child(args: argparse.Namespace) -> None:
    sys.path.insert(0, str(SRC))
    import ops

    op_list = corpus.build(args.workload, args.seed)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        sticks = [yardstick() for _ in range(2 * WINDOW + 1)]
        print(json.dumps({"setup_s": setup_s * YARDSTICK_S / statistics.median(sticks)}))
        return
    passes = []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < args.seconds:
        passes.append(run_pass(op_list, ops.run_op))
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            passes.append(run_pass(op_list, tracer.op_runner(ops.run_op)))
        passes[-1]["layers"] = tracer.layer_metrics()
    texts = passes[0]["texts"]
    for p in passes:
        p["texts"] = [hashlib.sha256(text.encode()).hexdigest() for text in p["texts"]]
    result = {"passes": passes, "texts": texts, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# Parent process: spawns the workload processes and checks their outputs


def spawn(args: argparse.Namespace, setup_only: bool) -> dict:
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "PYTHONHASHSEED": "0"})
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    """Non-blank lines under src/ that are not comments."""
    count = 0
    for path in sorted(SRC.rglob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                count += 1
    return count


def classify(op: dict, statuses: set[str], text: str) -> str | None:
    """The known fault an op failed by, "unknown", or None if it did not fail."""
    if statuses == {"ok"}:
        return None
    if len(statuses) > 1:
        return "unknown"
    status = statuses.pop()
    for name, matches in KNOWN_FAULTS.items():
        if matches(op, status, text):
            return name
    return "unknown"


def verify(op_list: list[dict], raw: dict) -> tuple[list[str], int]:
    """Problems with the outputs, and the number of ops that failed in
    each pass."""
    import reference

    digest = json.loads(DIGEST.read_text())
    problems = []
    failed = 0
    for j, op in enumerate(op_list):
        if len({p["texts"][j] for p in raw["passes"]}) != 1:
            problems.append(f"{op['id']}: output differs between passes")
        text = raw["texts"][j]
        fault = classify(op, {p["status"][j] for p in raw["passes"]}, text)
        if fault is not None:
            failed += 1
            if fault == "unknown":
                problems.append(f"{op['id']}: failed outside the known faults: {text[:200]}")
            continue
        problems.extend(f"{op['id']}: {e}" for e in reference.check(op, text))
        if op.get("digest"):
            want = digest.get(op["id"])
            got = json.loads(text)["mean"]
            if want is None or float.fromhex(want) != got:
                problems.append(f"{op['id']}: mean {got!r} differs from digest.json ({want})")
    return problems, failed


def measure(args: argparse.Namespace) -> dict:
    setups = [] if args.trace else [spawn(args, setup_only=True)["setup_s"] for _ in range(SETUPS)]
    raw = spawn(args, setup_only=False)
    op_list = corpus.build(args.workload, args.seed)
    problems, failed_per_pass = verify(op_list, raw)
    n_ops = len(op_list)
    passes = raw["passes"]
    timed = passes[:-1] if args.trace else passes
    per_pass = [scaled(p["times"], p["sticks"]) for p in timed]
    pass_s = statistics.median(sum(t) for t in per_pass)
    if args.trace:
        traced = passes[-1]
        traced_s = sum(scaled(traced["times"], traced["sticks"]))
        metrics = dict(traced["layers"])
        metrics["trace.untraced_ops_per_s"] = {"value": n_ops / pass_s, "unit": "ops/s"}
        metrics["trace.traced_ops_per_s"] = {"value": n_ops / traced_s, "unit": "ops/s"}
        metrics["trace.slowdown"] = {"value": traced_s / pass_s, "unit": "ratio"}
        metrics["machine.yardstick_ms"] = {
            "value": 1e3 * statistics.median(s for p in passes for s in p["sticks"]), "unit": "ms"}
    else:
        per_op = [statistics.median(t[j] for t in per_pass) for j in range(n_ops)]
        metrics = {
            "ops_per_s": {"value": n_ops / pass_s, "unit": "ops/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(per_op), "unit": "ms"},
            "peak_rss_mb": {"value": raw["peak_rss_kb"] / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "src_lines": {"value": src_lines(), "unit": "lines"},
        }
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": n_ops * len(passes),
        "failed": failed_per_pass * len(passes),
        "metrics": metrics,
        "raw": {
            "pass_wall_s": [sum(p["times"]) for p in passes],
            "pass_scaled_s": [sum(t) for t in per_pass],
            "yardstick_ms": [1e3 * statistics.median(p["sticks"]) for p in passes],
            "setup_s": setups,
            "op_wall_s": [p["times"] for p in timed],
            "op_yardstick_s": [p["sticks"] for p in timed],
        },
    }


def record_digest() -> None:
    """Run the pinned sampling ops and store their means in digest.json."""
    sys.path.insert(0, str(SRC))
    import ops

    pinned = [op for op in corpus.build("simulate", 0) if op.get("digest")]
    digest = {op["id"]: float.hex(json.loads(ops.run_op(op)[0])["mean"]) for op in pinned}
    DIGEST.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digest)} means to {DIGEST}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, help="run one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true", help="rewrite digest.json and exit")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "haltbandit" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'haltbandit'} is missing", file=sys.stderr)
        return 2
    if args.child:
        child(args)
        return 0
    if args.record_digest:
        record_digest()
        return 0
    OUT.mkdir(exist_ok=True)
    results = {}
    for name in [args.workload] if args.workload else corpus.WORKLOADS:
        args.workload = name
        result = measure(args)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")
        results[name] = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(f"{name}: {result['attempted']} ops attempted, {result['failed']} failed, "
              f"correct={result['correct']}", file=sys.stderr)
        for key, metric in result["metrics"].items():
            print(f"  {key:48s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(results[args.workload] if len(results) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
