"""Command-line surface.

Subcommands: gbc (evaluate a set), solve (run an algorithm), gen
(write instances), verify (cross-check suites), bench (CSV timings).
Reports go to stdout as JSON with a fixed key order; diagnostics go to
stderr.  Exit codes: 2 usage, 3 validation, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

from .errors import (
    CapExceededError,
    ConsistencyError,
    ContractViolationError,
    GraphLoadError,
    NotATreeError,
)
from .coverage import coverage_greedy, coverage_weight, reduce_to_coverage
from .exact import solve_exact
from .gbc import GbcOracle, gbc_direct
from .generators import gen_apx, gen_random, gen_random_costs, gen_random_tree, gen_tight
from .graph import CostedInstance, apsp, parse_graph, parse_instance, to_instance_json
from .greedy import audit_solution, greedy_modified, greedy_ratio, greedy_unit
from .tree import tree_solve

__all__ = ["main", "entry"]


def _f(x: float) -> float:
    """Round-trip a float through 12 significant digits for stable reports."""
    return float(f"{float(x):.12g}")


def _read(path: str) -> str:
    return Path(path).read_text()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mbckit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("gbc", help="print the group betweenness of a node set")
    pg.add_argument("-g", "--graph", required=True)
    pg.add_argument("--set", required=True, help="comma-separated node labels")

    ps = sub.add_parser("solve", help="run a solver and print a JSON report")
    ps.add_argument("-g", "--graph", required=True)
    ps.add_argument("--costs")
    ps.add_argument("--budget", type=float)
    ps.add_argument(
        "--algo", required=True, choices=["unit", "ratio", "modified", "tree", "exact"]
    )
    ps.add_argument("--seed", type=int)

    pn = sub.add_parser("gen", help="generate instance files")
    gsub = pn.add_subparsers(dest="kind", required=True)
    gt = gsub.add_parser("tight")
    gt.add_argument("--k", type=int, required=True)
    gt.add_argument("--ls", type=int)
    gt.add_argument("--lt", type=int)
    gt.add_argument("-o", "--out", required=True)
    ga = gsub.add_parser("apx")
    ga.add_argument("-g", "--graph", required=True)
    ga.add_argument("--l", type=int)
    ga.add_argument("--k", type=int, default=1)
    ga.add_argument("-o", "--out", required=True)
    gr = gsub.add_parser("random")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--p", type=float, required=True)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--costs", action="store_true", help="attach random integer costs")
    gr.add_argument("--budget", type=float)
    gr.add_argument("-o", "--out", required=True)
    gtr = gsub.add_parser("tree")
    gtr.add_argument("--n", type=int, required=True)
    gtr.add_argument("--seed", type=int, default=0)
    gtr.add_argument("-o", "--out", required=True)

    pv = sub.add_parser("verify", help="run a cross-check suite")
    pv.add_argument("kind", choices=["reduction", "oracle", "tree", "ratio"])
    pv.add_argument("-g", "--graph", required=True)
    pv.add_argument("--costs")
    pv.add_argument("--seed", type=int, default=0)

    pb = sub.add_parser("bench", help="CSV timings over a suite file")
    pb.add_argument("--suite", required=True)
    return p


def _cmd_gbc(args) -> int:
    g = parse_graph(_read(args.graph))
    ids = g.ids(lab.strip() for lab in args.set.split(",") if lab.strip())
    value = gbc_direct(apsp(g), ids)
    print(f"{value:.12g}")
    return 0


def _solve_instance(inst: CostedInstance, algo: str):
    if algo == "unit":
        if not inst.unit_costs:
            raise ContractViolationError("--algo unit requires unit costs")
        if inst.budget != int(inst.budget):
            raise ContractViolationError("--algo unit requires an integer budget")
        return greedy_unit(inst, int(inst.budget))
    if algo == "ratio":
        return greedy_ratio(inst)
    if algo == "modified":
        return greedy_modified(inst)
    if algo == "tree":
        return tree_solve(inst)
    return solve_exact(inst)


def _cmd_solve(args) -> int:
    costs_text = _read(args.costs) if args.costs else None
    inst = parse_instance(_read(args.graph), costs_text, args.budget)
    g = inst.graph
    start = time.perf_counter()
    sol = _solve_instance(inst, args.algo)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    audit_solution(inst, sol)
    report = {
        "n": g.n,
        "m": g.m,
        "budget": _f(inst.budget),
        "algo": sol.algorithm,
        "nodes": [g.labels[v] for v in sol.nodes],
        "cost": _f(sol.cost),
        "gbc": _f(sol.gbc),
        "time_ms": _f(elapsed_ms),
        "seed": args.seed,
    }
    print(json.dumps(report))
    return 0


def _cmd_gen(args) -> int:
    out = Path(args.out)
    written: list[Path] = []
    if args.kind == "tight":
        g, meta = gen_tight(args.k, args.ls, args.lt)
        inst_path = out.with_suffix(".json")
        inst_path.write_text(to_instance_json(g, cost=np.ones(g.n), budget=float(args.k)))
        meta_path = out.with_name(out.name + ".meta.json")
        meta_path.write_text(meta.to_json())
        written += [inst_path, meta_path]
    elif args.kind == "apx":
        base = parse_graph(_read(args.graph))
        big, meta = gen_apx(base, k=args.k, l=args.l)
        inst_path = out.with_suffix(".json")
        inst_path.write_text(to_instance_json(big, cost=np.ones(big.n), budget=float(args.k)))
        meta_path = out.with_name(out.name + ".meta.json")
        meta_path.write_text(meta.to_json())
        written += [inst_path, meta_path]
    elif args.kind == "random":
        g = gen_random(args.n, args.p, args.seed)
        cost = None
        if args.costs:
            mapping = gen_random_costs(g, seed=args.seed)
            cost = np.array([mapping[lab] for lab in g.labels])
        inst_path = out.with_suffix(".json")
        inst_path.write_text(to_instance_json(g, cost=cost, budget=args.budget))
        written.append(inst_path)
    else:
        g = gen_random_tree(args.n, args.seed)
        inst_path = out.with_suffix(".json")
        inst_path.write_text(to_instance_json(g))
        written.append(inst_path)
    for path in written:
        print(str(path))
    return 0


def _verify_reduction(inst: CostedInstance, rng: random.Random) -> None:
    g = inst.graph
    pc = apsp(g)
    ci = reduce_to_coverage(inst)
    tol = 1e-9 * g.n * g.n
    if g.n <= 9:
        groups = [
            [v for v in range(g.n) if mask >> v & 1] for mask in range(1 << g.n)
        ]
    else:
        groups = [
            [v for v in range(g.n) if rng.random() < 0.5] for _ in range(200)
        ]
    for group in groups:
        got = coverage_weight(ci, group)
        want = gbc_direct(pc, group)
        if abs(got - want) > tol:
            raise ConsistencyError(
                f"coverage weight {got} != direct value {want} for {group}"
            )
    if inst.unit_costs:
        k = min(3, g.n)
        node_side = greedy_unit(inst, k)
        cov_side = coverage_greedy(ci, k=k)
        if node_side.order != cov_side.order:
            raise ConsistencyError("greedy selection sequences diverge across the bridge")


def _verify_oracle(inst: CostedInstance, rng: random.Random) -> None:
    g = inst.graph
    pc = apsp(g)
    tol = 1e-9 * g.n * g.n
    root = GbcOracle(pc)  # its copies share the diagonal and the column store
    for _ in range(20):
        size = rng.randrange(1, g.n + 1)
        seq = rng.sample(range(g.n), size)
        oracles = root.copy(), GbcOracle(pc, seq)  # every node, and the sequence's pool
        chosen: list[int] = []
        after = 0.0  # gbc_direct of the empty group
        for v in seq:
            before = after
            chosen.append(v)
            after = gbc_direct(pc, chosen)
            for oracle in oracles:
                gain = oracle.gain(v)
                oracle.add(v)
                if abs(gain - (after - before)) > tol or abs(oracle.base_value - after) > tol:
                    raise ConsistencyError(f"oracle drifted on sequence {seq}")


def _verify_tree(inst: CostedInstance, rng: random.Random) -> None:
    g = inst.graph
    if g.n > 20:
        raise ContractViolationError("verify tree needs at most 20 nodes")
    for _ in range(5):
        cost = np.array([float(rng.randint(0, 5)) for _ in range(g.n)])
        budget = float(rng.randint(0, max(1, int(cost.sum()))))
        trial = CostedInstance(g, cost, budget)
        a = tree_solve(trial)
        b = solve_exact(trial)
        if a.gbc != b.gbc:
            raise ConsistencyError(
                f"tree value {a.gbc} != exhaustive value {b.gbc} (costs {cost}, budget {budget})"
            )


def _verify_ratio(inst: CostedInstance, rng: random.Random) -> None:
    g = inst.graph
    if g.n > 20:
        raise ContractViolationError("verify ratio needs at most 20 nodes")
    for _ in range(5):
        cost = np.array([float(rng.randint(0, 5)) for _ in range(g.n)])
        budget = float(rng.randint(1, max(1, int(cost.sum()))))
        trial = CostedInstance(g, cost, budget)
        opt = solve_exact(trial).gbc
        lo_mod = (1 - 1 / np.e - 1e-9) * opt
        lo_rat = (1 - 1 / np.sqrt(np.e) - 1e-9) * opt
        if greedy_modified(trial).gbc < lo_mod:
            raise ConsistencyError("modified greedy fell below its guarantee")
        if greedy_ratio(trial).gbc < lo_rat:
            raise ConsistencyError("ratio greedy fell below its guarantee")


def _cmd_verify(args) -> int:
    costs_text = _read(args.costs) if args.costs else None
    # budget is irrelevant to the checks themselves; verify suites draw their own
    inst = parse_instance(_read(args.graph), costs_text, budget=0.0)
    inst = CostedInstance(inst.graph, inst.cost, float(inst.graph.n))
    rng = random.Random(args.seed)
    {
        "reduction": _verify_reduction,
        "oracle": _verify_oracle,
        "tree": _verify_tree,
        "ratio": _verify_ratio,
    }[args.kind](inst, rng)
    print(f"{args.kind}: ok")
    return 0


def _cmd_bench(args) -> int:
    import csv

    suite = json.loads(_read(args.suite))
    writer = csv.writer(sys.stdout)
    writer.writerow(["instance", "algo", "gbc", "opt", "ratio", "time_ms"])
    for entry_ in suite:
        costs_text = _read(entry_["costs"]) if entry_.get("costs") else None
        inst = parse_instance(
            _read(entry_["graph"]), costs_text, entry_.get("budget")
        )
        opt = None
        if entry_.get("exact"):
            best = solve_exact(inst)
            audit_solution(inst, best)
            opt = best.gbc
        for algo in entry_.get("algos", ["modified"]):
            start = time.perf_counter()
            sol = _solve_instance(inst, algo)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            audit_solution(inst, sol)
            ratio = "" if not opt else f"{sol.gbc / opt:.6f}"
            writer.writerow(
                [
                    entry_.get("name", entry_["graph"]),
                    algo,
                    f"{sol.gbc:.12g}",
                    "" if opt is None else f"{opt:.12g}",
                    ratio,
                    f"{elapsed_ms:.3f}",
                ]
            )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gbc":
            return _cmd_gbc(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bench(args)
    except (
        GraphLoadError,
        NotATreeError,
        CapExceededError,
        ContractViolationError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"consistency fault: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
