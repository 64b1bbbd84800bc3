"""Interleaved A/B of perfbench's end-to-end metrics between two checkouts.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS

Runs ``perfbench/run.py --workload WORKLOAD --seed SEED`` in each checkout,
PAIRS times, for the ``run_seconds`` of the change's BENCHMARK.json,
alternating which side goes first: the parent on odd pairs, the change on
even ones.  Then prints, for each end-to-end metric of that file, each
side's median and quartiles, how many pairs the change won (ties count for
neither), how much better the change's median is than the parent's
(negative: worse), and a verdict: ``worse`` when it is worse beyond the
metric's bound, ``gain`` when the change won at least nine tenths of the
pairs and its median is better by more than the parent's interquartile
range, else ``same``.  A run that exits non-zero (perfbench's golden gate
failed) or prints no result is counted as failed, and its pair is left out
of the figures.  Exits 1 on a failed run or a ``worse`` verdict.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One perfbench invocation → {metric: value}, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None
    return {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        raise SystemExit(__doc__)
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, seed, pairs = argv[2], int(argv[3]), int(argv[4])
    spec = json.loads((change / "BENCHMARK.json").read_text())

    runs: dict[str, list] = {"parent": [], "change": []}
    for i in range(1, pairs + 1):
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            m = _run(parent if side == "parent" else change, workload, seed,
                     spec["run_seconds"])
            print(f"[ab_pairs] pair {i} {side}: "
                  f"{'FAILED' if m is None else 'ok'}", file=sys.stderr, flush=True)
            runs[side].append(m)
    failed = {side: sum(m is None for m in ms) for side, ms in runs.items()}
    ok = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
    print(f"{workload} seed {seed}: {len(ok)} of {pairs} pairs; failed runs "
          f"parent {failed['parent']}, change {failed['change']}")
    if not ok:
        return 1

    worse = False
    print(f"{'metric':<20} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'wins':>6} {'better':>8} "
          f"{'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        p = [r[name] for r, _ in ok]
        c = [r[name] for _, r in ok]
        (p1, pm, p3), (c1, cm, c3) = _quartiles(p), _quartiles(c)
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        gain = sign * (cm - pm)  # > 0: the change's median is better
        rel = gain / max(abs(pm), 1e-12)
        if rel < -metric["bound"]:
            verdict, worse = "worse", True
        elif wins >= 0.9 * len(ok) and gain > p3 - p1:
            verdict = "gain"
        else:
            verdict = "same"
        print(f"{name:<20} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30} "
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30} "
              f"{f'{wins}/{len(ok)}':>6} {rel:>+8.1%} {metric['bound']:>6}  {verdict}")
    return 1 if worse or any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
