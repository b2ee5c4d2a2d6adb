"""gatednli benchmark: paper-dims train and serve, toy-dims train.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-train --seed 1 --seconds 20 --trace 0

Each run generates its inputs from the seed, then runs rounds of the same
``gatednli`` command (``train`` or ``predict``), each in a fresh process,
until ``--seconds`` have passed, checks the outputs, and prints one JSON
line: end-to-end metrics with ``--trace 0``, per-layer metrics from traced
rounds with ``--trace 1``. See README.md for the metrics and workloads.
"""

import os
import sys

# Part of the benchmark, not of the machine: set before numpy loads, here and
# in every round's process.
BLAS_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
ROUND_TIMEOUT_S = 150.0
# Set-up-only rounds after the timed ones, so that setup_s is a median over
# several set-ups even when one round fills the run.
SETUP_ROUNDS = 4

if not os.path.isfile(os.path.join(SRC, "gatednli", "cli.py")):
    sys.stderr.write(f"error: no gatednli sources under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402


def run_round(spec, work: str, index, trace_path: str = "-", setup_only: bool = False) -> dict:
    """One ``gatednli`` process; returns its phase marks, exit code and peak RSS."""
    marks_path = os.path.join(work, f"marks-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "entry.py"), SRC, marks_path, trace_path,
           spec.final_checkpoint(index), *(["--setup-only"] if setup_only else []), "--",
           *spec.argv(index)]
    with open(os.path.join(work, f"round-{index}.log"), "w") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        pid = 0
        try:
            while time.monotonic() - spawn <= ROUND_TIMEOUT_S:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                time.sleep(0.02)
        finally:
            if not pid:  # timed out, or this process is being stopped
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"index": index, "code": proc.returncode, "spawn": spawn,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode == 0 and os.path.exists(marks_path):
        with open(marks_path) as fh:
            result.update(json.load(fh))
        if not setup_only:
            result.update(spec.counts(index))
    return result


def phases(spec, r: dict) -> tuple[float, float]:
    """(set-up seconds, main-phase seconds) of one round.

    Set-up runs from the spawn to the first pair processed; the main phase
    from there to the end of train() (training) or of the command (serving).
    """
    m = r["marks"]
    first = m.get("first_pair", m.get("train_enter", m["start"]))
    end = m["train_exit"] if spec.train else m["end"]
    return first - r["spawn"], end - first


def end_to_end(spec, rounds: list[dict], setups: list[dict] = ()) -> dict:
    split = [phases(spec, r) for r in rounds]
    return {
        "pairs_per_s": sum(r["pairs"] for r in rounds) / sum(main for _, main in split),
        "setup_s": statistics.median(phases(spec, r)[0] for r in [*rounds, *setups]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(spec, traced: list[dict], untraced: dict) -> dict:
    n = len(traced)
    totals: dict[str, dict] = {}
    for r in traced:
        for key, t in r["trace"]["totals"].items():
            acc = totals.setdefault(key, dict.fromkeys(t, 0))
            for field, value in t.items():
                acc[field] += value
    train_pairs = sum(r["train_pairs"] for r in traced)
    pairs = sum(r["forward_pairs"] for r in traced)

    def get(key, field="total_s"):
        return totals.get(key, {}).get(field, 0)

    def per(x, d):
        return x / d if d else 0.0

    def tape(*keys):
        return per(sum(get(k, "tape") for k in keys), train_pairs)

    traced_rate = end_to_end(spec, traced)["pairs_per_s"]
    windows = [phases(spec, r)[1] for r in traced]
    return {
        "data.load_corpus_s": get("data.load_corpus") / n,
        "data.load_word_vectors_s": get("data.load_word_vectors") / n,
        "data.batchify_ms_per_pair": 1e3 * per(get("data.batchify"), train_pairs),
        "model.initialize_s": get("model.initialize") / n,
        "train.checkpoint_load_s": get("train.checkpoint_load") / n,
        "train.build_model_s": get("train.build_model") / n,
        "model.forward_ms_per_pair": 1e3 * per(get("model.forward"), pairs),
        "embed.ms_per_pair": 1e3 * per(get("embed", "self_s"), pairs),
        "embed.char_compose_ms_per_pair": 1e3 * per(get("embed.char_compose"), pairs),
        "embed.char_compose_calls_per_pair": per(get("embed.char_compose", "calls"), pairs),
        "encoder.ms_per_pair": 1e3 * per(get("encoder"), pairs),
        "encoder.positions_per_pair": per(get("encoder", "count_a"), pairs),
        "encoder.valid_share": per(get("encoder", "count_b"), get("encoder", "count_a")),
        "compose.ms_per_pair": 1e3 * per(get("compose"), pairs),
        "classify.ms_per_pair": 1e3 * per(get("classify"), pairs),
        "classify.loss_ms_per_pair": 1e3 * per(get("classify.loss"), train_pairs),
        "embed.tape_records_per_pair": tape("embed", "embed.char_compose"),
        "encoder.tape_records_per_pair": tape("encoder"),
        "compose.tape_records_per_pair": tape("compose"),
        "classify.tape_records_per_pair": tape("classify", "classify.loss"),
        "tensor.tape_records_per_pair": per(sum(r["trace"]["tape"] for r in traced), train_pairs),
        "tensor.backward_ms_per_pair": 1e3 * per(get("tensor.backward"), train_pairs),
        "train.clip_ms_per_step": 1e3 * per(get("train.clip"), get("train.clip", "calls")),
        "train.adam_ms_per_step": 1e3 * per(get("train.adam"), get("train.adam", "calls")),
        "train.checkpoint_copy_s": get("train.checkpoint_copy") / n,
        "train.evaluate_ms_per_pair": 1e3 * per(get("train.evaluate"), get("train.evaluate", "count_a")),
        "trace.pairs_per_s": traced_rate,
        "trace.overhead_share": 1.0 - traced_rate / end_to_end(spec, [untraced])["pairs_per_s"],
        "trace.layer_share": per(sum(r["trace"]["layer_s"] for r in traced), sum(windows)),
    }


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_round's clean-up


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec_json = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec_json["per_layer" if args.trace else "end_to_end"]}

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        spec = workloads.WORKLOADS[args.workload](work, args.seed)
        rounds, untraced = [], None
        if args.trace:
            untraced = run_round(spec, work, -1)
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            trace_path = os.path.join(OUT, f"trace-{tag}-r{len(rounds)}.jsonl") if args.trace else "-"
            rounds.append(run_round(spec, work, len(rounds), trace_path))
        setups = [] if args.trace else [
            run_round(spec, work, f"setup{k}", setup_only=True) for k in range(SETUP_ROUNDS)]
        done = [r for r in rounds if r["code"] == 0 and "marks" in r]
        extra = [untraced] if untraced is not None else setups
        if not done or any(r["code"] != 0 or "marks" not in r for r in extra):
            for r in [*rounds, *extra]:
                sys.stderr.write(f"round {r['index']} exited {r['code']}\n")
            return 1
        problems = spec.check(done)
        for msg in problems:
            print(f"check failed: {msg}")
        if args.trace:
            metrics = per_layer(spec, done, untraced)
            absent = sorted({a for r in done for a in r["trace"]["absent"]})
            print(f"# absent from the program: {', '.join(absent) or 'none'}")
        else:
            metrics = end_to_end(spec, done, setups)
        failed = spec.nominal_pairs * (len(rounds) - len(done))
        result = {
            "correct": not problems and not failed,
            "attempted": sum(r["pairs"] for r in done) + failed,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
        print(f"# {len(rounds)} rounds and {len(setups)} set-up rounds, {result['attempted']} pairs;"
              f" BLAS threads {BLAS_THREADS}")
        line = json.dumps(result)
        with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
            fh.write(line + "\n")
        print(line)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
