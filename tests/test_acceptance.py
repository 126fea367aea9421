"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 4 (the universal counting law) is checked over every drawing
registered by the other criteria plus its own generator sweep, so it is
defined last in this module.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

from oddplanar import Multigraph, complete_bipartite, complete_graph, validate_drawing
from oddplanar.bounds import (
    audit_drawing,
    mk_upper,
    modd_upper,
    ocr_linear_lower,
    sampling_experiment,
)
from oddplanar.cli import main
from oddplanar.docio import serialize_drawing
from oddplanar.oracle import (
    EnumerationBudget,
    exact_crossing_value,
    extremal_search,
    perturb_even,
    random_drawing,
)
from oddplanar.redraw import (
    OneVertexSketch,
    hanani_tutte_embed,
    interleaving_parity,
    lemma1_redraw,
    theorem2_transform,
)
from oddplanar.surgery import (
    insert_edge_shortest,
    quadrangulation_with_diagonals,
    random_planar_drawing,
)

from enumeration import enumerate_drawings

# every drawing produced anywhere in this run:
# (label, n, m, odd pairs, valid, simple underlying graph)
PRODUCED: list[tuple[str, int, int, int, bool, bool]] = []


def produce(label: str, d) -> object:
    PRODUCED.append(
        (
            label,
            d.graph.n,
            d.graph.m,
            len(d.odd_pairs()),
            not validate_drawing(d),
            d.graph.is_simple,
        )
    )
    return d


# ---------------------------------------------------------------------------
# Criterion 1: Lemma 1 exhaustive suite, L <= 4 loops
# ---------------------------------------------------------------------------


def test_criterion_1_lemma1_exhaustive():
    t0 = time.monotonic()
    cases = 0
    for loops in range(1, 5):
        tokens = []
        for e in range(1, loops + 1):
            tokens.extend([(e, 0), (e, 1)])
        first, rest = tokens[0], tokens[1:]
        for perm in permutations(rest):
            rotation = (first,) + perm
            sk = OneVertexSketch(0, rotation)
            d = lemma1_redraw(sk)
            produce("lemma1", d)
            assert validate_drawing(d) == []
            got = d.vertex_endings(0)
            n = len(got)
            assert any(got[i:] + got[:i] == rotation for i in range(n)), "rotation changed"
            for i, e in enumerate(sk.loops):
                assert d.self_crossing_count(e) == 0, "self-crossing produced"
                for f in sk.loops[i + 1 :]:
                    want = interleaving_parity(rotation, e, f)
                    assert d.crossing_count(e, f) == want, "pair count differs from parity"
            cases += 1
    elapsed = time.monotonic() - t0
    assert cases == 1 + 6 + 120 + 5040
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1: PASS - {cases} rotations redrawn and verified in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: weak Hanani-Tutte as an algorithm, 200 seeded cases
# ---------------------------------------------------------------------------


def test_criterion_2_hanani_tutte_200():
    done = 0
    worst = 0.0
    seed = 0
    while done < 200:
        seed += 1
        n = 4 + (seed % 7)  # 4..10
        deletions = seed % 4
        base = random_planar_drawing(n, seed, deletions=deletions)
        if base.graph.m < 2:
            continue
        moves = 1 + (seed % 6)
        try:
            d, _ = perturb_even(base, moves, seed)
        except ValueError:
            continue
        produce("perturbed-even", d)
        assert d.odd_pairs() == frozenset()
        t0 = time.monotonic()
        out = hanani_tutte_embed(d)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert dt < 1.0, f"case took {dt:.2f}s"
        produce("hanani-tutte-out", out)
        assert validate_drawing(out) == []
        assert len(out.crossing_nodes()) == 0
        assert out.graph == d.graph
        done += 1
    print(f"ACCEPTANCE 2: PASS - 200/200 crossing-free redrawings, worst case {worst*1000:.0f}ms")


# ---------------------------------------------------------------------------
# Criterion 3: Theorem 2 pipeline on 200 seeded k-odd-plane drawings
# ---------------------------------------------------------------------------


def _random_graph(n: int, m: int, seed: int) -> Multigraph:
    rng = random.Random(f"{seed}:graph")
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    chosen = sorted(pairs[:m])
    return Multigraph(tuple(range(n)), tuple((i, uv) for i, uv in enumerate(chosen)))


def test_criterion_3_theorem2_200():
    done = 0
    seen_k = set()
    seed = 0
    attempts = 0
    while done < 200:
        seed += 1
        attempts += 1
        assert attempts < 5000, "generator failed to reach 200 admissible cases"
        kind = seed % 3
        if kind == 0:
            n = 5 + (seed % 5)
            g = _random_graph(n, n + 2 + (seed % 3), seed)
            d = random_drawing(g, seed, model="convex")
        elif kind == 1:
            n = 4 + (seed % 6)
            d = quadrangulation_with_diagonals(n, seed)
        else:
            n = 5 + (seed % 5)
            base = random_planar_drawing(n, seed, deletions=2 + (seed % 3))
            verts = base.graph.vertices
            present = {frozenset(uv) for _, uv in base.graph.edges}
            absent = [
                (u, v)
                for i, u in enumerate(verts)
                for v in verts[i + 1 :]
                if frozenset((u, v)) not in present
            ]
            if not absent:
                continue
            rng = random.Random(f"{seed}:pick")
            u, v = absent[rng.randrange(len(absent))]
            d = insert_edge_shortest(base, max(base.graph.edge_ids()) + 1, u, v, rng=rng)
        if d.graph.n > 9:
            continue
        k = 1 if d.is_k_odd_plane(1) else 2 if d.is_k_odd_plane(2) else None
        if k is None:
            continue
        produce("theorem2-input", d)
        n, m = d.graph.n, d.graph.m
        assert audit_drawing(d, k).all_passed
        sk = d.parity_sketch()
        trace = theorem2_transform(d, k)
        g4 = produce("theorem2-g4", trace.g4)
        produce("theorem2-g1", trace.g1)
        assert validate_drawing(trace.g4) == []
        assert trace.g4.is_k_plane(k)
        assert len(trace.removed) <= k * (n - 1)
        eids = trace.g4.graph.edge_ids()
        for i, e in enumerate(eids):
            for f in eids[i + 1 :]:
                assert trace.g4.crossing_count(e, f) == sk.parity(e, f)
        assert trace.g4.rotation_system() == trace.g1.rotation_system()
        assert m <= mk_upper(k, n) + k * (n - 1)
        assert audit_drawing(trace.g4, k).all_passed
        seen_k.add(k)
        done += 1
    assert seen_k == {1, 2}, f"only k values {seen_k} exercised"
    print(f"ACCEPTANCE 3: PASS - 200/200 pipeline runs (k values {sorted(seen_k)})")


# ---------------------------------------------------------------------------
# Criterion 5: oracle calibration
# ---------------------------------------------------------------------------


def _all_graph_classes(n: int):
    """Canonical representatives (as edge bitmasks) of all isomorphism
    classes of simple graphs on n vertices, by orderly edge addition."""
    pairs = list(combinations(range(n), 2))
    pidx = {p: i for i, p in enumerate(pairs)}
    tables = []
    for pm in permutations(range(n)):
        t = [0] * len(pairs)
        for i, (u, v) in enumerate(pairs):
            a, b = pm[u], pm[v]
            t[i] = pidx[(min(a, b), max(a, b))]
        tables.append(t)

    def canon(mask: int) -> int:
        best = None
        for t in tables:
            out = 0
            m = mask
            i = 0
            while m:
                if m & 1:
                    out |= 1 << t[i]
                m >>= 1
                i += 1
            if best is None or out < best:
                best = out
        return best

    seen = {0}
    frontier = [0]
    classes = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for b in range(len(pairs)):
                if not (mask >> b) & 1:
                    c = canon(mask | (1 << b))
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
                        classes.append(c)
        frontier = nxt
    return pairs, classes


def _is_planar_small(n: int, edges) -> bool:
    """Kuratowski check, exact for n <= 6: a nonplanar graph this small
    contains K5, K5 with one edge subdivided, or K3,3 as a subgraph."""
    es = {(min(u, v), max(u, v)) for u, v in edges}

    def has(u, v):
        return (min(u, v), max(u, v)) in es

    verts = range(n)
    for comb5 in combinations(verts, 5):
        missing = [(a, b) for a, b in combinations(comb5, 2) if not has(a, b)]
        if not missing:
            return False
        if len(missing) == 1 and n >= 6:
            a, b = missing[0]
            for w in verts:
                if w not in comb5 and has(w, a) and has(w, b):
                    return False
    if n >= 6:
        for left in combinations(verts, 3):
            right = tuple(v for v in verts if v not in left)
            if all(has(u, v) for u in left for v in right):
                return False
    return True


NINE_VARIANTS = (
    ("ocr", "star"),
    ("ocr", "plus"),
    ("pcr", "plus"),
    ("cr", "plus"),
    ("ocr", "zero"),
    ("pcr", "zero"),
    ("cr", "zero"),
    ("ocr", "minus"),
    ("pcr", "minus"),
    ("cr", "minus"),
)


def test_criterion_5_oracle_calibration():
    t0 = time.monotonic()
    one = EnumerationBudget(max_crossings=1, max_candidates=500_000, time_limit=280.0)
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        for variant in ("cr", "pcr", "ocr"):
            assert exact_crossing_value(g, variant, "zero", one) == 1

    zero = EnumerationBudget(max_crossings=0, max_candidates=400_000, time_limit=280.0)
    totals, planars = [], []
    checked = 0
    for n in range(1, 7):
        pairs, classes = _all_graph_classes(n)
        pl = 0
        for mask in classes:
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            if not _is_planar_small(n, edges):
                continue
            pl += 1
            g = Multigraph(tuple(range(n)), tuple((i, e) for i, e in enumerate(edges)))
            for variant, rule in NINE_VARIANTS:
                assert exact_crossing_value(g, variant, rule, zero) == 0, (n, mask, variant, rule)
            checked += 1
        totals.append(len(classes))
        planars.append(pl)
    # cross-check the generator against the published counts
    assert totals == [1, 2, 4, 11, 34, 156]
    assert planars == [1, 2, 4, 11, 33, 142]
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 5: PASS - K5/K3,3 all 1; {checked} planar classes all 0 "
        f"under nine variants in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 6: sampling experiment at n=10, m=20, p=1/2, 1e5 trials
# ---------------------------------------------------------------------------


def test_criterion_6_sampling_experiment():
    g = _random_graph(10, 20, seed=20259)
    d = produce("sampling-base", random_drawing(g, seed=12, model="convex"))
    assert d.graph.n == 10 and d.graph.m == 20
    stats = sampling_experiment(d, Fraction(1, 2), trials=100_000, seed=2026)
    assert stats.expected_n == 5 and stats.expected_m == 5
    assert abs(float(stats.mean_n - stats.expected_n)) <= 3 * stats.se_n
    assert abs(float(stats.mean_m - stats.expected_m)) <= 3 * stats.se_m
    assert stats.law_violations == 0
    print(
        f"ACCEPTANCE 6: PASS - mean n'={float(stats.mean_n):.4f} (SE {stats.se_n:.4f}), "
        f"mean m'={float(stats.mean_m):.4f} (SE {stats.se_m:.4f}), 0 law violations"
    )


# ---------------------------------------------------------------------------
# Criterion 7: bound-table regression against an independent table
# ---------------------------------------------------------------------------


def _indep_sqrt_floor(c: int, k: int, n: int) -> int:
    """floor(sqrt(c*k)*n) by float seeding plus exact adjustment."""
    x = int(math.sqrt(c * k) * n)
    while (x + 1) * (x + 1) <= c * k * n * n:
        x += 1
    while x * x > c * k * n * n:
        x -= 1
    return x


def _indep_381_floor(k: int, n: int) -> int:
    """floor(3.81*sqrt(k)*n) likewise (3.81 = 381/100)."""
    x = int(3.81 * math.sqrt(k) * n)
    while (100 * (x + 1)) ** 2 <= 381 * 381 * k * n * n:
        x += 1
    while (100 * x) ** 2 > 381 * 381 * k * n * n:
        x -= 1
    return x


def _indep_mk(k: int, n: int) -> int:
    if n <= 2:
        return n * (n - 1) // 2
    linear = {
        0: 3 * n - 6,
        1: 4 * n - 8,
        2: 5 * n - 10,
        3: math.floor(Fraction(11, 2) * n - 11),
        4: 6 * n - 12,
    }
    vals = []
    if k <= 4:
        vals.append(linear[k])
    if k >= 2:
        vals.append(_indep_381_floor(k, n))
    return min(vals)


def _indep_modd(k: int, n: int) -> int:
    if k == 0:
        return _indep_mk(0, n)
    if n <= 2:
        return n * (n - 1) // 2
    return min(_indep_mk(k, n) + k * (n - 1), _indep_sqrt_floor(32, k, n))


def test_criterion_7_bound_table_regression():
    spot = {
        (0, 20): 3 * 20 - 6,
        (1, 20): 4 * 20 - 8,
        (2, 20): 5 * 20 - 10,
        (3, 20): math.floor(5.5 * 20 - 11),
        (4, 20): 6 * 20 - 12,
    }
    for (k, n), want in spot.items():
        assert mk_upper(k, n) == want
    assert modd_upper(1, 20) == 5 * 20 - 9
    assert modd_upper(2, 20) == 7 * 20 - 12
    for k in range(0, 7):
        for n in range(1, 51):
            assert mk_upper(k, n) == _indep_mk(k, n), (k, n)
            assert modd_upper(k, n) == _indep_modd(k, n), (k, n)
    print("ACCEPTANCE 7: PASS - bound tables match the independent encoding on k<=6, n<=50")


# ---------------------------------------------------------------------------
# Criterion 8: determinism
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path, capsys):
    d = produce("det-base", random_drawing(complete_graph(5), seed=5, model="convex"))
    assert serialize_drawing(d) == serialize_drawing(
        random_drawing(complete_graph(5), seed=5, model="convex")
    )
    f = tmp_path / "k5.json"
    f.write_bytes(serialize_drawing(d))

    main(["sample", str(f), "--p", "0.5", "--trials", "200", "--seed", "3"])
    a = capsys.readouterr().out
    main(["sample", str(f), "--p", "0.5", "--trials", "200", "--seed", "3"])
    b = capsys.readouterr().out
    assert a == b and json.loads(a)["seed"] == 3

    main(["search", "--k", "1", "--n", "6", "--budget", "candidates=40", "--seed", "11"])
    s1 = capsys.readouterr().out
    main(["search", "--k", "1", "--n", "6", "--budget", "candidates=40", "--seed", "11"])
    s2 = capsys.readouterr().out
    assert s1 == s2

    # the oracle's stdout is byte-identical across interpreters with
    # different hash randomization
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for hash_seed in ("2", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "oddplanar", "oracle", "K5", "--variant", "pcr",
             "--rule", "zero", "--max-crossings", "1"],
            capture_output=True,
            env=env,
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and json.loads(outs[0])["value"] == 1
    print("ACCEPTANCE 8: PASS - byte-identical reruns; oracle minima identical across processes")


# ---------------------------------------------------------------------------
# Criterion 4: universal counting law over every drawing produced
# (defined last so the registry above is full)
# ---------------------------------------------------------------------------


def test_criterion_4_universal_counting_law():
    # extra generator and enumerator sweep beyond what other criteria made
    for seed in range(25):
        n = 5 + (seed % 6)
        g = _random_graph(n, min(n * (n - 1) // 2, n + 3 + seed % 5), seed + 1000)
        produce("convex-sweep", random_drawing(g, seed, model="convex"))
    budget = EnumerationBudget(max_crossings=1, max_candidates=60_000, time_limit=60.0)
    count = 0
    for d in enumerate_drawings(complete_graph(4), budget):
        produce("enumerated-k4", d)
        count += 1
        if count >= 40:
            break
    for k in (0, 1, 2):
        res = extremal_search(k, 6, EnumerationBudget(0, 25, 20.0), seed=k)
        produce("search-best", res.best)
    assert len(PRODUCED) > 5500, "registry unexpectedly small"
    violations = []
    checked = 0
    for label, n, m, odd, valid, simple in PRODUCED:
        if not valid:
            violations.append((label, n, m, "invalid drawing"))
        # the counting law is a theorem about simple graphs; one-vertex
        # loop bouquets and other multigraph intermediates are exempt
        if simple and n >= 1:
            checked += 1
            if odd < ocr_linear_lower(n, m):
                violations.append((label, n, m, f"odd={odd} < bound"))
    assert not violations, violations[:5]
    print(
        f"ACCEPTANCE 4: PASS - law held on {checked} simple-graph drawings "
        f"({len(PRODUCED)} produced, all valid)"
    )
