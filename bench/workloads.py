"""The three workloads: seeded inputs, the CLI jobs run on them, and an
independent output check per job.

``build`` generates every input from the seed with the package's own
generators, writes the documents under a work directory and returns the
jobs in their fixed order.  The program under test only ever sees those
documents (or, for ``search``, the seed on its command line).  Each job
belongs to a ladder (a family of inputs at growing size ``n``); a ladder
with one size is a single rung.
"""
from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from drawcheck import read_map


@dataclass(frozen=True)
class Job:
    id: str
    ladder: str
    n: int
    argv: tuple[str, ...]
    check: Callable[[dict], None]  # raises CheckFailed (or MapError) on a bad output
    svg: str | None = None  # file the job writes; digested and checked too


class CheckFailed(AssertionError):
    pass


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _sub(seed: int, label: str) -> int:
    return random.Random(f"{seed}:{label}").getrandbits(32)


def build(workload: str, seed: int, smoke: bool, work: Path) -> list[Job]:
    builders = {"redraw": _redraw, "oracle": _oracle, "explore": _explore}
    return builders[workload](seed, smoke, work)


def _write(work: Path, name: str, data: bytes) -> str:
    path = work / f"{name}.json"
    path.write_bytes(data)
    return str(path)


def _load(path: str) -> dict:
    """An input document, read back only when its job is checked, so the
    harness holds no parsed copies while the jobs run."""
    return json.loads(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# redraw: embed and transform on growing drawings
# ---------------------------------------------------------------------------


def _redraw(seed: int, smoke: bool, work: Path) -> list[Job]:
    from oddplanar.docio import serialize_drawing
    from oddplanar.graphs import Multigraph
    from oddplanar.oracle import perturb_even, random_drawing
    from oddplanar.surgery import quadrangulation_with_diagonals, random_planar_triangulation

    reps = 1 if smoke else 2
    jobs = []
    for n in (8, 12) if smoke else (25, 50, 100):
        for i in range(reps):
            s = _sub(seed, f"embed:{n}:{i}")
            d, _ = perturb_even(random_planar_triangulation(n, s), 6, s)
            path = _write(work, f"embed-{n}-{i}", serialize_drawing(d))
            jobs.append(Job(f"embed/n{n}/{i}", "embed", n, ("embed", path), partial(_check_embed, path)))
    # Odd n: for even n >= 8 the generator ignores the seed.
    for n in (9, 13) if smoke else (21, 41, 61):
        for i in range(reps):
            s = _sub(seed, f"quad:{n}:{i}")
            path = _write(work, f"quad-{n}-{i}", serialize_drawing(quadrangulation_with_diagonals(n, s)))
            jobs.append(
                Job(f"transform-k1/n{n}/{i}", "transform-k1", n, ("transform", path, "--k", "1"),
                    partial(_check_transform, path, 1))
            )
    n, m = (10, 14) if smoke else (20, 30)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i in range(reps):
        s = _sub(seed, f"sparse:{n}:{i}")
        g = Multigraph(tuple(range(n)), tuple(enumerate(random.Random(s).sample(pairs, m))))
        path = _write(work, f"sparse-{n}-{i}", serialize_drawing(random_drawing(g, s, "convex")))
        src = read_map(_load(path))
        k = max(src.odd_partners(e) for e in src.edges)
        jobs.append(
            Job(f"transform-kmax/n{n}/{i}", "transform-kmax", n, ("transform", path, "--k", str(k)),
                partial(_check_transform, path, k))
        )
    return jobs


def _check_embed(src: str, out: dict) -> None:
    m = read_map(out)
    _need(not m.pair_counts and not m.self_counts, "output has crossings")
    _need(out["graph"] == _load(src)["graph"], "output graph differs from the input graph")


def _check_transform(src: str, k: int, out: dict) -> None:
    _need(out["k"] == k, "wrong k echoed")
    trace = out["trace"]
    inp, g4 = read_map(_load(src)), read_map(trace["g4"])
    removed = set(trace["removed"])
    _need(removed <= set(inp.edges), "removed an unknown edge")
    _need(len(removed) <= k * (len(inp.vertices) - 1), f"removed {len(removed)} > k(n-1) edges")
    _need(g4.vertices == inp.vertices, "g4 has other vertices")
    _need(g4.edges == {e: uv for e, uv in inp.edges.items() if e not in removed},
          "g4 is not the input minus the removed edges")
    _need(all(c <= k for c in g4.crossings_on.values()), "g4 is not k-plane")
    _need(not g4.self_counts, "g4 has self-crossings")
    survivors = sorted(g4.edges)
    for i, e in enumerate(survivors):
        for f in survivors[i + 1:]:
            _need(g4.pair_counts[(e, f)] == inp.parity(e, f),
                  f"edges {e},{f} cross {g4.pair_counts[(e, f)]} times, input parity {inp.parity(e, f)}")


# ---------------------------------------------------------------------------
# oracle: exact crossing values of tiny relabelled graphs
# ---------------------------------------------------------------------------


def _relabel(g, rng: random.Random):
    """Seeded sparse ids for the vertices and edges of g, kept in their
    original order.  The oracle enumerates in id order, and a permutation
    of the ids moves the first witness anywhere in that order: a K5 job
    then takes 0.02 to 0.8 s depending on the seed, so the workload's time
    would measure the draw rather than the code."""
    from oddplanar.graphs import Multigraph

    vmap = dict(zip(g.vertices, sorted(rng.sample(range(1000), g.n))))
    emap = dict(zip(g.edge_ids(), sorted(rng.sample(range(1000), g.m))))
    return Multigraph(tuple(vmap.values()), tuple((emap[e], (vmap[u], vmap[v])) for e, (u, v) in g.edges))


def _oracle(seed: int, smoke: bool, work: Path) -> list[Job]:
    from oddplanar.docio import serialize_graph
    from oddplanar.graphs import Multigraph, complete_bipartite, complete_graph, cycle_graph

    k5, k33 = complete_graph(5), complete_bipartite(3, 3)
    if smoke:
        cases = [("K3,3", k33, "cr", "zero", 1), ("K5", k5, "cr", "plus", 1), ("K4", complete_graph(4), "cr", "zero", 0)]
        cycles = (4, 6)
    else:
        k5e = Multigraph(k5.vertices, k5.edges[:-1])
        cases = [("K5", k5, v, r, 1) for v, r in
                 (("cr", "zero"), ("pcr", "zero"), ("ocr", "zero"), ("ocr", "star"), ("cr", "plus"))]
        cases += [("K3,3", k33, v, r, 1) for v, r in
                  (("cr", "zero"), ("cr", "minus"), ("pcr", "minus"), ("ocr", "minus"))]
        cases.append(("K5-e", k5e, "cr", "zero", 0))
        cycles = (6, 12, 24, 48)
    # Planar cycles form the workload's size ladder (planar verdicts at growing n).
    cases += [(f"C{n}", cycle_graph(n), "cr", "zero", 0) for n in cycles]
    rng = random.Random(f"{seed}:relabel")
    jobs = []
    for i, (name, g, variant, rule, expected) in enumerate(cases):
        path = _write(work, f"graph-{i}", serialize_graph(_relabel(g, rng)))
        ladder = "cycle" if name.startswith("C") else name
        jobs.append(
            Job(f"oracle/{name}/{variant}-{rule}", ladder, g.n,
                ("oracle", path, "--variant", variant, "--rule", rule, "--max-crossings", "1"),
                partial(_check_oracle, g.n, g.m, expected))
        )
    return jobs


def _check_oracle(n: int, m: int, expected: int, out: dict) -> None:
    _need(out["graph"] == {"n": n, "m": m}, "wrong graph size echoed")
    _need(out.get("value") == expected, f"value {out.get('value')!r}, expected {expected}")


# ---------------------------------------------------------------------------
# explore: search, sampling, audits and rendering
# ---------------------------------------------------------------------------


def _explore(seed: int, smoke: bool, work: Path) -> list[Job]:
    from oddplanar.docio import serialize_drawing
    from oddplanar.surgery import add_diagonals, random_planar_triangulation, random_quadrangulation

    jobs = []
    budget = "candidates=20" if smoke else "candidates=300"
    # n doubles per rung: at 12/20/30 the fitted slope moved by 15% between seeds.
    for n in (8, 10) if smoke else (12, 24, 48):
        s = _sub(seed, f"search:{n}")
        jobs.append(
            Job(f"search/n{n}", "search", n,
                ("search", "--k", "1", "--n", str(n), "--budget", budget, "--seed", str(s)),
                partial(_check_search, n))
        )
    # A grown quadrangulation with diagonals: the seed shapes it at even n too.
    n, trials = (11, 50) if smoke else (30, 1000)
    s = _sub(seed, f"dense:{n}")
    path = _write(work, f"dense-{n}", serialize_drawing(add_diagonals(random_quadrangulation(n, s))))
    s = _sub(seed, "sample")
    jobs.append(
        Job(f"sample/n{n}", "sample", n,
            ("sample", path, "--p", "1/2", "--trials", str(trials), "--seed", str(s)),
            partial(_check_sample, trials, s))
    )
    jobs.append(Job(f"stats/n{n}", "stats", n, ("stats", path), partial(_check_stats, path)))
    jobs.append(Job(f"audit/n{n}", "audit", n, ("audit", path, "--k", "1"), partial(_check_audit, path)))
    tri_n, quad_n = (6, 8) if smoke else (16, 12)
    for name, n, d in (
        ("tri", tri_n, random_planar_triangulation(tri_n, _sub(seed, "render:tri"))),
        ("quad", quad_n, add_diagonals(random_quadrangulation(quad_n, _sub(seed, "render:quad")))),
    ):
        path = _write(work, f"render-{name}", serialize_drawing(d))
        svg = str(work / f"render-{name}.svg")
        jobs.append(
            Job(f"render-{name}/n{n}", f"render-{name}", n, ("render", path, "-o", svg),
                partial(_check_render, svg), svg=svg)
        )
    return jobs


def _check_search(n: int, out: dict) -> None:
    best = read_map(out["best"])
    m = len(best.edges)
    _need(len(best.vertices) == n and out["edge_count"] == m, "size of the best drawing misreported")
    _need(all(u != v for u, v in best.edges.values()), "best drawing has a loop")
    _need(len({frozenset(uv) for uv in best.edges.values()}) == m, "best drawing has parallel edges")
    _need(all(best.odd_partners(e) <= 1 for e in best.edges), "best drawing is not 1-odd-plane")
    # Warm start: 4n-8 edges (quadrangulation with diagonals) for even n >= 8, else 3n-6.
    warm = 4 * n - 8 if n >= 8 and n % 2 == 0 else 3 * n - 6
    _need(m >= warm, f"best m={m} is below the warm start {warm}")


def _check_sample(trials: int, seed: int, out: dict) -> None:
    _need(out["seed"] == seed and out["trials"] == trials, "wrong seed or trial count echoed")
    _need(out["law_violations"] == 0, f"{out['law_violations']} law violations")


def _check_stats(src: str, out: dict) -> None:
    m = read_map(_load(src))
    _need(out["n"] == len(m.vertices) and out["m"] == len(m.edges), "wrong size")
    _need(out["pair_counts"] == [[list(k), v] for k, v in sorted(m.pair_counts.items())],
          "pair counts differ from the document's crossings")


def _check_audit(src: str, out: dict) -> None:
    m = read_map(_load(src))
    _need(out["all_passed"] is True, "audit did not pass")
    _need(out["is_k_odd_plane"] == all(m.odd_partners(e) <= 1 for e in m.edges), "wrong 1-odd-plane verdict")


def _check_render(svg: str, out: dict) -> None:
    data = Path(svg).read_bytes()
    ET.fromstring(data)
    _need(out["written"] == svg and out["bytes"] == len(data), "reported size differs from the file")
