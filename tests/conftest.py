"""Suite-wide fixtures."""

import pytest

from repro.core.reverser import shutdown_gp_pools


@pytest.fixture(autouse=True)
def _fresh_gp_pools():
    """Every test starts without cached GP process pools and leaves none.

    A pool is keyed by its memo directory, and most memo tests use their
    own temporary one; without this, each would leave a live pool behind
    for the rest of the session.
    """
    yield
    shutdown_gp_pools()
