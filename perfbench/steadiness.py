"""Run the benchmark once per seed on each workload and report how steady it is.

    python3 perfbench/steadiness.py --seeds 0-9 --out perfbench/results/steadiness.json

For every end-to-end metric this prints, per workload, the median and
quartiles of the per-run values, and the spread (q3 - q1) / median next to
the metric's bound from BENCHMARK.json. A spread below a third of the bound
is steady. With ``--against`` an earlier result file, it also checks that no
median got worse than the earlier one by more than the bound. Runs go one
after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[0].split(":", 1)[1]) if lines[0].startswith("# machine:") else {}
    return {"seed": seed, "wall_s": wall_s, "machine": machine, **json.loads(lines[-1])}


def spreads(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        out[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": metric.get("bound"),
            "values": values,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the runs and spreads here as JSON")
    parser.add_argument("--against", type=Path, help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    better = {m["name"]: m["better"] for m in metrics}
    steady = True
    for workload in workloads:
        runs = [run_once(spec, workload, seed, args.trace) for seed in parse_seeds(args.seeds)]
        summary = spreads(runs, metrics)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        report["machine"] = runs[0]["machine"]
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} repetitions, "
              f"{failed} failed, all correct={all(r['correct'] for r in runs)}, "
              f"max wall {max(r['wall_s'] for r in runs):.1f} s")
        for name, s in summary.items():
            bound = s["bound"]
            ok = bound is None or name == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:30s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
                  f"spread={spread}" + (f" bound={bound} {'ok' if ok else 'NOT STEADY'}"
                                        if bound is not None else ""))
        steady &= failed == 0 and all(r["correct"] for r in runs)
        for name, s in summary.items():
            if workload not in earlier or s["bound"] is None:
                continue
            before = earlier[workload]["summary"][name]["median"]
            worse = (s["median"] - before if better[name] == "lower" else before - s["median"]) / before
            ok = worse <= s["bound"]
            steady &= ok
            print(f"  {name:30s} median {before:.6g} -> {s['median']:.6g}: worse by {worse:+.4f} "
                  f"(bound {s['bound']}) {'ok' if ok else 'REGRESSED'}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
