from __future__ import annotations

import pytest

from support import RING15, RING735, RING3975


@pytest.fixture
def ring15():
    return RING15


@pytest.fixture
def ring735():
    return RING735


@pytest.fixture
def ring3975():
    return RING3975
