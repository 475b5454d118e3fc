"""Compare two result files of ``run.py --out``: one row per (metric, workload).

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

``A`` is the parent, ``B`` the change.  With several runs on a side (comma
separated), each run counts as one rep: its median is the sample.  A row is

* ``ok``          B's median is no worse than A's by more than the metric's bound;
* ``regressed``   it is worse by more than the bound;
* ``unresolved``  the spread between reps (IQR / median, either side) is wider
                  than the bound, so the medians decide nothing - unless every
                  rep of B is better than every rep of A (``ok``) or worse than
                  every rep of A by more than the bound (``regressed``).

``epochs_to_target`` and the number of failed checks are exact: any increase is
a regression.  Exits 1 if any row regressed, 2 if the files cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_bounds() -> dict[str, tuple[str, float]]:
    declaration = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in declaration["end_to_end"]}


def judge(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(how much worse B is, as a share of A's median; status)``."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(a["iqr"] / a["median"], b["iqr"] / b["median"])
    if spread <= bound:
        return worse, "regressed" if worse > bound else "ok"
    # too noisy for the medians: only a clean separation of all reps decides
    if better == "lower":
        b_best, b_worst, a_best, a_worst = b["min"], b["max"], a["min"], a["max"]
    else:
        b_best, b_worst, a_best, a_worst = -b["max"], -b["min"], -a["max"], -a["min"]
    if b_worst < a_best:
        return worse, "ok"
    if b_best > a_worst + bound * abs(a_worst):
        return worse, "regressed"
    return worse, "unresolved"


def compare(a: dict, b: dict, bounds: dict[str, tuple[str, float]]) -> list[dict]:
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (better, bound) in bounds.items():
            worse, status = judge(wa["e2e"][metric], wb["e2e"][metric], better, bound)
            rows.append({
                "metric": metric, "workload": name, "a": wa["e2e"][metric]["median"],
                "b": wb["e2e"][metric]["median"], "worse": worse, "bound": bound,
                "status": status,
            })
        exact = {
            "epochs_to_target": (wa["epochs_to_target"], wb["epochs_to_target"]),
            "failed_checks": (wa["checks"]["failed"], wb["checks"]["failed"]),
        }
        for metric, (va, vb) in exact.items():
            rows.append({
                "metric": metric, "workload": name, "a": va, "b": vb,
                "worse": (vb - va) / va if va else float(vb > va), "bound": 0.0,
                "status": "regressed" if vb > va else "ok",
            })
    return rows


def load_side(paths: str) -> dict:
    """One result file, or several runs folded into one (a run = one rep)."""
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths.split(",")]
    for doc in docs:
        if doc.get("label") != "full":
            raise ValueError(f"a {doc.get('label')!r} result compares with nothing")
    side = docs[0]
    if len(docs) == 1:
        return side
    for name, record in side["workloads"].items():
        runs = [d["workloads"][name] for d in docs if name in d["workloads"]]
        for metric, stats in record["e2e"].items():
            medians = sorted(r["e2e"][metric]["median"] for r in runs)
            q1, q2, q3 = statistics.quantiles(medians, n=4)
            stats.update(median=q2, min=medians[0], max=medians[-1], iqr=q3 - q1,
                         reps=len(medians))
        record["epochs_to_target"] = max(r["epochs_to_target"] for r in runs)
        record["checks"]["failed"] = sum(r["checks"]["failed"] for r in runs)
    return side


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    try:
        a, b = (load_side(paths) for paths in argv)
    except ValueError as exc:
        print(f"refusing to compare: {exc}")
        return 2
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); epoch counts are seed-specific")
    rows = compare(a, b, load_bounds())
    print(f"{'metric':18s} {'workload':18s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>6s}  status")
    for r in rows:
        print(
            f"{r['metric']:18s} {r['workload']:18s} {r['a']:12.5g} {r['b']:12.5g} "
            f"{r['worse'] * 100:8.2f}% {r['bound'] * 100:5.0f}%  {r['status']}"
        )
    counts = {s: sum(r["status"] == s for r in rows) for s in ("ok", "regressed", "unresolved")}
    print(", ".join(f"{n} {s}" for s, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
