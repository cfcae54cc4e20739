"""The CLI's output bytes, pinned: every case of ``byte_digests.CASES`` run
in-process gives the exit code and the SHA-256 digests that
``byte_digests.json`` records, with no tolerance."""
import pytest

import byte_digests

DIGESTS = byte_digests.load()


def test_every_case_is_pinned():
    assert sorted(DIGESTS["cases"]) == sorted(byte_digests.CASES)


@pytest.mark.parametrize("name", sorted(byte_digests.CASES))
def test_output_bytes(name):
    assert byte_digests.run_case(byte_digests.CASES[name]) == DIGESTS["cases"][name]


def test_moved_names_every_added_dropped_and_changed_digest():
    old = {"cases": {"a": {"exit": 0}, "b": {"exit": 0}, "c": {"exit": 0}}, "demos": {"d": "x"}}
    new = {"cases": {"a": {"exit": 0}, "b": {"exit": 1}, "e": {"exit": 0}}, "demos": {"d": "y"}}
    assert byte_digests.moved(old, new) == ["cases.b", "cases.c", "cases.e", "demos.d"]
    assert byte_digests.moved(new, new) == []
    assert byte_digests.moved({}, new) == ["cases.a", "cases.b", "cases.e", "demos.d"]
