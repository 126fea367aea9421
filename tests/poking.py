"""Reference listing of the double-crossing moves a drawing offers: every
dart pair ``surgery.random_poke`` draws from, in the order it counts them.
Not collected by pytest: the module name has no ``test_`` prefix."""
from __future__ import annotations

from oddplanar.drawing import Drawing


def entangle_options(d: Drawing) -> list[tuple[int, int]]:
    """Dart pairs (a, b) on one face whose darts lie on distinct edges, the
    arguments ``double_crossing_move`` accepts, listed face by face in
    sorted face order and by position along each face."""
    seg_of = d.segment_of_dart()
    options: list[tuple[int, int]] = []
    for face in d.faces():
        for i, a in enumerate(face):
            for b in face[i + 1 :]:
                if seg_of[a][0] != seg_of[b][0]:
                    options.append((a, b))
    return options
