"""Golden run digests: every case must reproduce ``tests/golden/runs.json``.

Integers (labels, counters, drain orders, frontier modes, I/O and
fabric counts, serve outcomes) must match exactly; floats (makespans,
simulated and modeled ms) at a relative 1e-12.  See
``tests/golden/cases.py``; ``tests/golden/regenerate.py`` rewrites the
file after a deliberate model change.
"""

from __future__ import annotations

import pytest

from repro.core.backends import available_backends
from tests.golden import cases

GOLDEN = cases.load()

PARAMS = [pytest.param(name, backend, id=f"{name}-{backend}")
          for name, (_, takes_backend) in sorted(cases.CASES.items())
          for backend in (available_backends() if takes_backend
                          else ["numpy"])]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(cases.CASES)


@pytest.mark.parametrize("name,backend", PARAMS)
def test_run_matches_golden(name, backend):
    got = cases.run_case(name, backend)
    want = GOLDEN[name]
    assert got["sha256"] == want["sha256"]
    assert cases.floats_match(got["floats"], want["floats"])
