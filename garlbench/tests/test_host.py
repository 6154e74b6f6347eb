import os

import pytest

from garlbench.host import cpu_rotation

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                reason="needs CPU affinity")


def test_cpu_rotation_visits_every_cpu_and_restores_affinity():
    before = os.sched_getaffinity(0)
    seen = []
    with cpu_rotation() as step:
        for _ in range(2 * len(before)):
            step()
            seen.append(os.sched_getaffinity(0))
    assert all(len(s) == 1 for s in seen)
    assert set().union(*seen) == before
    assert seen[:len(before)] == seen[len(before):]
    assert os.sched_getaffinity(0) == before
