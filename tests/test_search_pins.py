"""Byte-identity pins for ``extremal_search`` beyond the k = 1, even-n
goldens of ``test_surgery_golden.py``: k = 0 (the triangulation start),
k = 2 and k = 3, and odd n, where the warm start is a grown
quadrangulation.  Each pin is the sha256 of the canonical JSON the
``search`` subcommand writes.  Regenerate with
``python tests/test_search_pins.py`` only when a change of search output
is intended.
"""
from __future__ import annotations

import hashlib

import pytest

from oddplanar.docio import canonical_json, to_jsonable
from oddplanar.oracle import EnumerationBudget, extremal_search

PINS = {
    "search/0/12/2": "8fcc88207314ced1f3d848a91442db59ba3085a1198469d4df93ab872eb3e232",
    "search/0/25/3": "3030897aef6515268d4ee3e8d79b73ad4f6ea8d4e92a756262e3568c9a6be0e9",
    "search/2/24/3": "b38b41a7b400b82c95b50cd78fdcd05c866c3aece5666d7c7994947b10d6b62e",
    "search/2/13/6": "2fcf02b3cdbe7cf12bb07632f13c74e36a52cd75785e161f702e462106e33fc8",
    "search/1/13/4": "e4c4e0a5e024611615a8293ee519d24c972705b2309af66c8e60c81c87779f94",
    "search/1/25/5": "3e50da32559d676ac96a354e70c2b5e23c40a6274458d36c38e5405f27981852",
    "search/3/13/8": "be3d58dba4ca0f3f9a723c03ab00117f89ec62d137e7bb8c8d94fd39429d958e",
}


def _search_digest(case: str) -> str:
    k, n, seed = (int(x) for x in case.split("/")[1:])
    res = extremal_search(k, n, EnumerationBudget(0, 200, 600.0), seed)
    data = canonical_json({"seed": seed, "k": k, "n": n, **to_jsonable(res)})
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(PINS))
def test_search_output_is_byte_identical(case):
    assert _search_digest(case) == PINS[case]


if __name__ == "__main__":
    for case in PINS:
        print(f"    {case!r}: {_search_digest(case)!r},")
