"""One workload run in a fresh process: set-up, timed batches, spans.

Started by run.py with the workload, seed, run length and trace flag;
writes ``worker.json`` (timings, answers, versions, peak memory) and,
when tracing, ``spans.jsonl`` into the output directory it is given.

A request is one CLI pipeline called in-process through mbckit's public
functions, from document text to audited answer: ``solve`` is
parse_instance -> solver -> cold apsp + gbc_direct audit, and ``gbc``
is parse_graph -> apsp -> gbc_direct.  Requests run back to back, one
at a time, in whole batches over the workload's pool until the run
length is used up.  With tracing on, untraced and traced batches
alternate, so the traced run can report its own overhead.
"""

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

START = time.perf_counter()

import numpy  # noqa: E402
import scipy  # noqa: E402

import mbckit as mb  # noqa: E402

IMPORT_S = time.perf_counter() - START

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3


class AuditError(Exception):
    """The solver's value disagrees with a cold re-evaluation."""


def run_request(req, text: str) -> dict:
    """Run one request through the public API, as the CLI does."""
    if req.group is not None:
        g = mb.parse_graph(text)
        ids = g.ids(req.group)
        value = mb.gbc_direct(mb.apsp(g), ids)
        return {
            "nodes": [g.labels[v] for v in sorted(ids)],
            "order": list(req.group),
            "value": value,
            "cost": None,
        }
    inst = mb.parse_instance(text)
    g = inst.graph
    cand = None if req.candidates is None else g.ids(req.candidates)
    if req.algo == "unit":
        sol = mb.greedy_unit(inst, int(inst.budget))
    elif req.algo == "ratio":
        sol = mb.greedy_ratio(inst)
    elif req.algo == "modified":
        sol = mb.greedy_modified(inst, candidates=cand)
    elif req.algo == "exact":
        sol = mb.solve_exact(inst, candidates=cand)
    else:
        sol = mb.tree_solve(inst)
    audit = mb.gbc_direct(mb.apsp(g), sol.nodes)
    if abs(audit - sol.gbc) > 1e-9 * g.n * g.n:
        raise AuditError(f"reported value {sol.gbc} fails re-evaluation ({audit})")
    return {
        "nodes": [g.labels[v] for v in sol.nodes],
        "order": [g.labels[v] for v in sol.order],
        "value": sol.gbc,
        "cost": sol.cost,
    }


def set_up(workload: str, seed: int, docs_dir: Path):
    """Generate the inputs, write the documents, read them back."""
    docs, pool = workloads.build(workload, seed)
    docs_dir.mkdir(parents=True, exist_ok=True)
    for name, text in docs.items():
        (docs_dir / f"{name}.json").write_text(text)
    texts = {name: (docs_dir / f"{name}.json").read_text() for name in docs}
    return texts, pool


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(args.out)
    src = (Path.cwd() / "src").resolve()
    if src not in Path(mb.__file__).resolve().parents:
        print(f"mbckit imported from {mb.__file__}, not from {src}", file=sys.stderr)
        return 2

    setup_samples = []
    texts = pool = None
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        again = set_up(args.workload, args.seed, out / "docs")
        setup_samples.append(time.perf_counter() - t)
        if texts is not None and again[0] != texts:
            print("set-up is not deterministic", file=sys.stderr)
            return 2
        texts, pool = again

    tracer = spans.Tracer() if args.trace else None
    answers: dict[str, list] = {req.name: [] for req in pool}
    batches = []
    clock = time.perf_counter
    deadline = clock() + args.seconds
    rid = 0
    while True:
        traced = bool(args.trace) and len(batches) % 2 == 1
        if traced:
            tracer.install()
        rows = []
        batch_start = clock()
        for req in pool:
            t = clock()
            try:
                if traced:
                    with tracer.request_span(rid):
                        ans = run_request(req, texts[req.doc])
                else:
                    ans = run_request(req, texts[req.doc])
                err = None
            except Exception as exc:  # a failed request is counted, not fatal
                ans, err = None, f"{type(exc).__name__}: {exc}"
            wall = clock() - t
            seen = answers[req.name]
            if ans is not None and ans not in seen:
                seen.append(ans)
            rows.append([rid, req.name, wall, err, None if ans is None else seen.index(ans)])
            rid += 1
        batches.append({"traced": traced, "wall": clock() - batch_start, "requests": rows})
        if traced:
            tracer.remove()
        if clock() >= deadline and len(batches) >= (2 if args.trace else 1):
            break

    if tracer is not None:
        with open(out / "spans.jsonl", "w") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps(sp) + "\n")
    result = {
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "import_s": IMPORT_S,
        "setup_samples": setup_samples,
        "pool": [vars(req) for req in pool],
        "batches": batches,
        "answers": answers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (out / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
