"""The dual-path search reads the dart-to-face map and draws its own
shuffles; the poke enumerator counts before it lists.

``shortest_dual_path`` must return what the search that shuffled with
``random.Random.shuffle`` returned (``splicing.shuffled_dual_path``) and
leave the generator in the same state.  ``random_poke`` must draw with one
``randrange`` over every double-crossing move and name the one the full
listing (``poking.entangle_options``) has at that index."""
from __future__ import annotations

import random

import pytest

from oddplanar import Drawing, Multigraph
from oddplanar.surgery import (
    _shuffle,
    insert_edge_shortest,
    quadrangulation_with_diagonals,
    random_planar_triangulation,
    random_poke,
    shortest_dual_path,
)
from poking import entangle_options
from splicing import shuffled_dual_path
from test_splice import sources


def test_in_loop_draws_equal_random_shuffle():
    for seed in range(500):
        mine, theirs = random.Random(seed), random.Random(seed)
        for n in range(41):
            a, b = list(range(n)), list(range(n))
            theirs.shuffle(a)
            assert _shuffle(b, mine.getrandbits) == a
            assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("name", sorted(sources()))
def test_dual_paths_equal_the_shuffling_search(name):
    d = sources()[name]
    verts = d.graph.vertices
    pairs = [(u, v) for u in verts[:6] for v in verts[-6:] if u != v]
    assert pairs
    for i, (u, v) in enumerate(pairs):
        assert shortest_dual_path(d, u, v) == shuffled_dual_path(d, u, v)
        mine, theirs = random.Random(i), random.Random(i)
        assert shortest_dual_path(d, u, v, mine) == shuffled_dual_path(d, u, v, theirs)
        assert mine.getstate() == theirs.getstate()


def test_the_corpus_explores_faces_of_three_darts_and_of_others():
    sizes = {len(f) for d in sources().values() for f in d.faces()}
    assert 3 in sizes and len(sizes - {3}) > 1


def test_an_endpoint_that_is_no_vertex_is_a_value_error():
    d = quadrangulation_with_diagonals(8, 1)
    crossing = d.crossing_nodes()[0]
    for u, v in ((0, 99), (99, 0), (0, crossing), (crossing, 0), (99, 99)):
        with pytest.raises(ValueError):
            shortest_dual_path(d, u, v)
        with pytest.raises(ValueError):
            insert_edge_shortest(d, 100, u, v, random.Random(1))


class Fixed:
    """A generator whose ``randrange`` returns a set value and records its
    argument."""

    def __init__(self, r: int) -> None:
        self.r, self.asked = r, []

    def randrange(self, n: int) -> int:
        self.asked.append(n)
        return self.r


@pytest.mark.parametrize("name", sorted(sources()))
def test_random_poke_names_the_listed_move_at_its_draw(name):
    d = sources()[name]
    options = entangle_options(d)
    for r in range(len(options)):
        rng = Fixed(r)
        assert random_poke(d, rng) == options[r]
        assert rng.asked == [len(options)]


def test_random_poke_draws_nothing_without_a_move():
    single = Drawing.from_routes(Multigraph((0, 1), ((0, (0, 1)),)), {0: ((0, 0),), 1: ((0, 1),)}, {0: ()}, {})
    for d in (Drawing.empty(), single):
        rng = Fixed(0)
        assert random_poke(d, rng) is None and rng.asked == []
    assert random_poke(random_planar_triangulation(6, 1), Fixed(0)) is not None
