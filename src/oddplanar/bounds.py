"""Density bounds, counting lower bounds, and drawing audits.

Everything is evaluated in exact arithmetic: linear formulas over the
integers, square-root bounds via ``isqrt`` (``floor(sqrt(c*k)*n)`` equals
``isqrt(c*k*n*n)``), and the cubic crossing-lemma bounds as fractions.
Floors happen only at the reported boundary, never inside a comparison.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .drawing import Drawing


class _NotApplicable:
    """Sentinel for a bound whose edge-density threshold is not met."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotApplicable"


NOT_APPLICABLE = _NotApplicable()


class InvalidProbability(ValueError):
    pass


# Reference constants of the Crossing Lemma variants that
# crossing_lemma_lower evaluates.
CROSSING_LEMMA_VARIANTS: dict[str, tuple[Fraction, Fraction]] = {
    # variant -> (denominator c in m^3/(c n^2), edge threshold factor t: m >= t*n)
    "ocr_star": (Fraction(54), Fraction(6)),
    "ocr_pt": (Fraction(64), Fraction(4)),
    "cr_classic": (Fraction(243, 4), Fraction(9, 2)),  # 1/60.75 above 4.5n
    "cr_ackerman": (Fraction(29), Fraction(7)),
}


def _sqrt_floor_times(c: int, k: int, n: int) -> int:
    """floor(sqrt(c*k) * n) computed exactly."""
    return isqrt(c * k * n * n)


def mk_upper(k: int, n: int) -> int:
    """Best known upper bound for the edge count of a graph drawable with
    at most k crossings per edge, on n vertices.

    Tabulated linear bounds for k <= 4 (3n-6, 4n-8, 5n-10, 5.5n-11,
    6n-12), combined for k >= 2 with floor(3.81*sqrt(k)*n); for n <= 2
    every formula is clamped to n(n-1)/2.
    """
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    if n <= 2:
        return n * (n - 1) // 2
    linear = {
        0: 3 * n - 6,
        1: 4 * n - 8,
        2: 5 * n - 10,
        3: (11 * n - 22) // 2,
        4: 6 * n - 12,
    }
    candidates = []
    if k <= 4:
        candidates.append(linear[k])
    if k >= 2:
        # floor(3.81 sqrt(k) n) = floor(isqrt(k * (381 n)^2) / 100)
        candidates.append(isqrt(k * (381 * n) ** 2) // 100)
    return min(candidates)


def mk_is_exact(k: int, n: int) -> bool:
    """True where mk_upper is known to be attained: planar graphs for
    n >= 3 and 1-planar graphs for n >= 12."""
    return (k == 0 and n >= 3) or (k == 1 and n >= 12)


def modd_upper(k: int, n: int) -> int:
    """Upper bound for the edge count of a graph drawable with each edge
    crossed oddly by at most k others: min of mk_upper(k,n) + k(n-1) and
    floor(sqrt(32k) * n); for k = 0 this is mk_upper itself (weak
    Hanani-Tutte)."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    if k == 0:
        return mk_upper(0, n)
    if n <= 2:
        return n * (n - 1) // 2
    return min(mk_upper(k, n) + k * (n - 1), _sqrt_floor_times(32, k, n))


def ocr_linear_lower(n: int, m: int) -> int:
    """Lower bound on the number of odd pairs in any drawing of any graph
    with n vertices and m edges: max(0, m-3n, 2m-8n)."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return max(0, m - 3 * n, 2 * m - 8 * n)


def crossing_lemma_lower(n: int, m: int, variant: str):
    """Crossing-lemma style cubic lower bound m^3/(c n^2) for the given
    variant, or NOT_APPLICABLE below the variant's edge threshold."""
    if n < 1:
        raise ValueError("need n >= 1")
    try:
        c, t = CROSSING_LEMMA_VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None
    if Fraction(m) < t * n:
        return NOT_APPLICABLE
    return Fraction(m) ** 3 / (c * Fraction(n) ** 2)


# ---------------------------------------------------------------------------
# Drawing audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    name: str
    applicable: bool
    passed: bool | None
    detail: str


@dataclass(frozen=True)
class BoundReport:
    """Every bound evaluated for one drawing, with per-check verdicts.

    A failed applicable check is a counterexample alert: it would falsify
    the implementation (the bounds are theorems), never the other way
    around.
    """

    n: int
    m: int
    k: int
    mk_upper_value: int
    mk_exact: bool
    modd_upper_value: int
    ocr_linear: int
    crossing_lemma: dict[str, object]
    odd_pair_count: int
    is_k_plane: bool
    is_k_odd_plane: bool
    checks: tuple[BoundCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)


def audit_drawing(d: Drawing, k: int) -> BoundReport:
    """Check one drawing against every applicable bound."""
    n, m = d.graph.n, d.graph.m
    if n < 1:
        raise ValueError("audit needs at least one vertex")
    stats = d.crossing_stats()
    odd = stats.ocr_rule0
    lin = ocr_linear_lower(n, m)
    kp = d.is_k_plane(k)
    kop = d.is_k_odd_plane(k)
    mk_v = mk_upper(k, n)
    mk_e = mk_is_exact(k, n)
    modd_v = modd_upper(k, n)
    lemma = {v: crossing_lemma_lower(n, m, v) for v in CROSSING_LEMMA_VARIANTS}

    checks = [
        BoundCheck(
            "odd-pairs-vs-linear-lower",
            True,
            odd >= lin,
            f"odd pairs {odd} >= max(0, m-3n, 2m-8n) = {lin}",
        ),
        BoundCheck(
            "odd-plane-density",
            kop,
            (m <= modd_v) if kop else None,
            f"m = {m} vs modd_upper({k},{n}) = {modd_v}",
        ),
        BoundCheck(
            "plane-density-exact",
            kp and mk_e,
            (m <= mk_v) if (kp and mk_e) else None,
            f"m = {m} vs mk_upper({k},{n}) = {mk_v}",
        ),
    ]
    star_bound = lemma["ocr_star"]
    star_applicable = stats.star_admissible and star_bound is not NOT_APPLICABLE
    checks.append(
        BoundCheck(
            "ocr-star-crossing-lemma",
            star_applicable,
            (Fraction(odd) >= star_bound) if star_applicable else None,
            f"odd pairs {odd} vs m^3/54n^2 = {star_bound}",
        )
    )
    pt_bound = lemma["ocr_pt"]
    pt_applicable = pt_bound is not NOT_APPLICABLE
    checks.append(
        BoundCheck(
            "ocr-crossing-lemma",
            pt_applicable,
            (Fraction(odd) >= pt_bound) if pt_applicable else None,
            f"odd pairs {odd} vs m^3/64n^2 = {pt_bound}",
        )
    )
    return BoundReport(
        n=n,
        m=m,
        k=k,
        mk_upper_value=mk_v,
        mk_exact=mk_e,
        modd_upper_value=modd_v,
        ocr_linear=lin,
        crossing_lemma=lemma,
        odd_pair_count=odd,
        is_k_plane=kp,
        is_k_odd_plane=kop,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# Random-subgraph sampling experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleStats:
    """Empirical means (with standard errors) of the vertex count, edge
    count and odd-pair count of random induced subdrawings, next to their
    exact expectations pn, p^2 m and p^4 * (odd pairs).  The p^4 form of
    the third expectation assumes the odd pairs are independent (4
    distinct endpoints), which holds in the weakly semisimple drawings
    the probabilistic argument runs on."""

    p: Fraction
    trials: int
    mean_n: Fraction
    se_n: float
    mean_m: Fraction
    se_m: float
    mean_x: Fraction
    se_x: float
    expected_n: Fraction
    expected_m: Fraction
    expected_x: Fraction
    law_violations: int


def _mean_se(total: int, squares: int, t: int) -> tuple[Fraction, float]:
    """Mean and standard error of t values from their sum and sum of
    squares.  The variance (t * squares - total^2) / (t (t - 1)) equals
    sum((v - mean)^2) / (t - 1) exactly, so no value needs keeping."""
    mean = Fraction(total, t)
    if t < 2:
        return mean, 0.0
    var = Fraction(t * squares - total * total, t * (t - 1))
    return mean, float(var / t) ** 0.5


# Every this-many-th sampling trial (from trial 0) also builds the induced
# subdrawing and checks the counted (n', m', x') against it.
_CROSS_CHECK_EVERY = 64


def _sample_counts(d: Drawing, p: Fraction, trials: int, seed: int):
    """Yield (n', m', x') of the induced subdrawing of trials 0, 1, ...,
    counted from endpoint sets: an inherited drawing keeps every crossing
    between surviving edges, so x' is the number of odd pairs of ``d``
    whose two edges are both kept.  Every 64th trial also builds the
    induced subdrawing and asserts the same three counts."""
    verts = d.graph.vertices
    ends = [uv for _, uv in d.graph.edges]
    index = {e: i for i, e in enumerate(d.graph.edge_ids())}
    odd = [(index[a], index[b]) for a, b in sorted(d.odd_pairs())]
    pf = float(p)
    for t in range(trials):
        rng = random.Random(seed + t)
        vs = {v for v in verts if rng.random() < pf} if p != 1 else set(verts)
        kept = [u in vs and v in vs for u, v in ends]
        counts = (len(vs), sum(kept), sum(1 for a, b in odd if kept[a] and kept[b]))
        if t % _CROSS_CHECK_EVERY == 0:
            sub = d.induced_subdrawing(vs)
            assert counts == (sub.graph.n, sub.graph.m, len(sub.odd_pairs())), "sample counts"
        yield counts


def sampling_experiment(d: Drawing, p, trials: int, seed: int) -> SampleStats:
    """Sample vertex subsets (each vertex kept independently with
    probability p) and compare the empirical means of n', m', x(G') of
    the induced subdrawings with the exact expectations.  Trial t draws
    from ``random.Random(seed + t)`` with ``seed >= 0``, so runs are
    reproducible and trials are independent.  Every sample is also
    checked against the universal law x(G') >= 2m' - 8n'."""
    try:
        p = Fraction(p)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidProbability(f"p = {p!r} is not a number") from None
    if not 0 < p <= 1:
        raise InvalidProbability(f"p = {p} outside (0, 1]")
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        # random.Random(s) seeds with abs(s), so seed + t would repeat subsets.
        raise ValueError("need seed >= 0")
    sums = [0, 0, 0]
    squares = [0, 0, 0]
    violations = 0
    for counts in _sample_counts(d, p, trials, seed):
        for i, v in enumerate(counts):
            sums[i] += v
            squares[i] += v * v
        n2, m2, x2 = counts
        if x2 < 2 * m2 - 8 * n2:
            violations += 1
    (mean_n, se_n), (mean_m, se_m), (mean_x, se_x) = (
        _mean_se(total, sq, trials) for total, sq in zip(sums, squares)
    )
    return SampleStats(
        p=p,
        trials=trials,
        mean_n=mean_n,
        se_n=se_n,
        mean_m=mean_m,
        se_m=se_m,
        mean_x=mean_x,
        se_x=se_x,
        expected_n=p * d.graph.n,
        expected_m=p * p * d.graph.m,
        expected_x=p**4 * len(d.odd_pairs()),
        law_violations=violations,
    )
