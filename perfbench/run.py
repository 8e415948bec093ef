"""Benchmark entry point: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload er-greedy --seed 1 --seconds 15 --trace 0

Runs the workload in a fresh child process (worker.py) with
single-threaded BLAS, then checks every distinct answer outside the
timed region with the independent evaluator in reference.py.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The last line of standard output is
the JSON result; a run record (versions, load, digests) is printed
before it and kept under perfbench/out/.  Exits non-zero without a
result when the program cannot be run or a traced layer goes missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402

CHILD_TIMEOUT_S = 150
VALUE_REL_TOL = 1e-9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, scipy, mbckit; "
    "print(time.perf_counter() - t)"
)
IMPORT_PROBES = 4


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path.cwd() / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def probe_imports() -> list[float]:
    """Import time of numpy, scipy and mbckit in fresh interpreters."""
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                             capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(IMPORT_PROBES)
    ]


def run_child(args, out: Path) -> int:
    env = child_env()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    with subprocess.Popen(cmd, env=env, stdout=sys.stderr) as proc:
        try:
            return proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"worker exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        finally:  # also on SIGTERM, which main() turns into SystemExit
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def check_answers(texts: dict, pool: list, answers: dict):
    """The parsed documents, and why each distinct answer fails.

    Failure reasons are keyed by (request name, answer index).
    """
    docs = {name: reference.load_document(text) for name, text in texts.items()}
    wanted = defaultdict(dict)  # doc -> {sorted node labels: None}
    for req in pool:
        for ans in answers[req["name"]]:
            wanted[req["doc"]][tuple(ans["nodes"])] = None
    ref = {}
    for doc_name, groups in wanted.items():
        doc = docs[doc_name]
        vals = reference.gbc_values(doc.adj, [[doc.id_of[x] for x in g] for g in groups])
        ref.update({(doc_name, g): v for g, v in zip(groups, vals)})

    bad = defaultdict(list)
    firsts = {}  # (doc, candidates, algo) -> (value, key) of the first answer
    for req in pool:
        doc = docs[req["doc"]]
        for i, ans in enumerate(answers[req["name"]]):
            key = (req["name"], i)
            want = ref[(req["doc"], tuple(ans["nodes"]))]
            if abs(ans["value"] - want) > VALUE_REL_TOL * max(1.0, abs(want)):
                bad[key].append(f"value {ans['value']!r} != reference {want!r}")
            if doc.budget is not None:
                cost = sum((doc.costs or {}).get(x, 1.0) for x in ans["nodes"])
                if cost > doc.budget + 1e-9:
                    bad[key].append(f"cost {cost} exceeds budget {doc.budget}")
            if req["algo"] in ("modified", "exact"):
                cand = tuple(req["candidates"] or ())
                firsts.setdefault((req["doc"], cand, req["algo"]), (ans["value"], key))
    for (doc_name, cand, algo), (mod, key) in firsts.items():
        exact = firsts.get((doc_name, cand, "exact"))
        if algo != "modified" or exact is None:
            continue
        opt = exact[0]
        slack = VALUE_REL_TOL * max(1.0, opt)
        if not (1 - 1 / math.e) * opt - slack <= mod <= opt + slack:
            bad[key].append(f"modified {mod} outside [(1 - 1/e) * {opt}, {opt}]")
    return docs, bad


def layer_metrics(result: dict, span_rows: list, names: list) -> dict:
    """Median over traced batches of every per-layer metric and self time."""
    batch_of = {}
    for b, batch in enumerate(result["batches"]):
        for row in batch["requests"]:
            batch_of[row[0]] = b
    per_batch = spans.layer_totals(span_rows, batch_of.__getitem__)
    traced = [b for b, batch in enumerate(result["batches"]) if batch["traced"]]
    keys = {k for b in traced for k in per_batch.get(b, {})} | set(names)
    med = {k: statistics.median(per_batch.get(b, {}).get(k, 0.0) for b in traced) for k in keys}
    walls = {t: [b["wall"] for b in result["batches"] if b["traced"] == t] for t in (True, False)}
    med["trace.batch_s"] = statistics.median(walls[True])
    med["trace.overhead_s"] = med["trace.batch_s"] - statistics.median(walls[False])
    return med


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (Path.cwd() / "src" / "mbckit" / "__init__.py").is_file():
        print("no src/mbckit under the working directory; run from the repository root",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    load_at_start = os.getloadavg()
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    code = run_child(args, out)
    if code != 0:
        print(f"worker failed with exit code {code}", file=sys.stderr)
        return 1
    result = json.loads((out / "worker.json").read_text())
    imports = [result["import_s"]] + probe_imports()
    setup_s = statistics.median(imports) + statistics.median(result["setup_samples"])
    pool = result["pool"]
    texts = {
        name: (out / "docs" / f"{name}.json").read_text()
        for name in sorted({req["doc"] for req in pool})
    }

    t = time.perf_counter()
    docs, bad = check_answers(texts, pool, result["answers"])
    check_s = time.perf_counter() - t
    rows = [row for batch in result["batches"] for row in batch["requests"]]
    failures = []
    for rid, name, _wall, err, idx in rows:
        if err is not None:
            failures.append(f"request {rid} {name}: {err}")
        elif bad.get((name, idx)):
            failures.append(f"request {rid} {name}: " + "; ".join(bad[(name, idx)]))
    first = {name: ans[0] for name, ans in result["answers"].items() if ans}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "versions": result["versions"],
        "loadavg_at_start": load_at_start,
        "batches": len(result["batches"]),
        "requests": len(rows),
        "check_s": check_s,
        "inputs": {name: reference.instance_digest(doc) for name, doc in docs.items()},
        "output_digest": reference.answers_digest(first),
        "answers_repeat": all(len(a) == 1 for a in result["answers"].values()),
        "failures": failures,
    }

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        span_rows = [json.loads(line) for line in (out / "spans.jsonl").open()]
        med = layer_metrics(result, span_rows, names)
        plan = json.loads((HERE / "predictions.json").read_text())["workloads"][args.workload]
        seen = {sp[0] for sp in span_rows}
        missing = [name for name in plan["expected_spans"] if name not in seen]
        if missing:
            print(f"tracer self-check failed on {args.workload}: no {', '.join(missing)} spans",
                  file=sys.stderr)
            return 3
        batch = med["trace.batch_s"]
        shares = {
            k: med[k] / batch
            for k in sorted(set(spans.SELF_METRIC.values()), key=lambda k: -med.get(k, 0.0))
            if med.get(k, 0.0) > 0
        }
        top = next(iter(shares))
        record.update(
            {
                "layer_shares": shares,
                "dominant_predicted": plan["dominant"],
                "dominant_measured": top,
                "dominant_match": top in plan["dominant"],
                "unexpected_spans": sorted(seen - set(plan["expected_spans"]) - {"request"}),
            }
        )
        print(f"{args.workload} traced: batch {batch:.4f} s, overhead "
              f"{med['trace.overhead_s']:+.4f} s per batch")
        for k, share in shares.items():
            print(f"  {k:<22} {med[k]:10.4f} s  {100 * share:5.1f}%")
        verdict = "match" if record["dominant_match"] else "MISMATCH"
        print(f"  dominant layer: predicted {' + '.join(plan['dominant'])}, measured {top} -> {verdict}")
        metrics = {n: {"value": med[n], "unit": units[n]} for n in names}
    else:
        walls = [row[2] for row in rows]
        batch_walls = [b["wall"] for b in result["batches"]]
        metrics = {
            "request_s": {"value": statistics.median(walls), "unit": "s"},
            "batch_s": {"value": statistics.median(batch_walls), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        samples = {
            "request_s": f"median of {len(walls)} requests",
            "batch_s": f"median of {len(batch_walls)} batches of {len(pool)} requests",
            "peak_rss_mb": "child process getrusage",
            "setup_s": f"median of {len(imports)} imports + median of "
            f"{len(result['setup_samples'])} set-ups",
        }
        print(f"{args.workload} seed {args.seed}:")
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:12.6f} {m['unit']:<3} ({samples[name]})")

    print(f"  failed {len(failures)} of {len(rows)} requests; output digest "
          f"{record['output_digest'][:16]}")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    (out / "record.json").write_text(json.dumps(record, indent=1))
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
