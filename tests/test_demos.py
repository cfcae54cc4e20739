"""Every script under demos/ runs to completion against this checkout and
prints the bytes that ``byte_digests.json`` records."""
import pytest

import byte_digests

DEMOS = byte_digests.DEMOS
DIGESTS = byte_digests.load()["demos"]


def test_demos_are_found():
    assert len(DEMOS) >= 5
    assert sorted(DIGESTS) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter in an empty directory
    run = byte_digests.run_demo(demo, tmp_path)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout
    assert byte_digests.sha256(run.stdout) == DIGESTS[demo.stem]
