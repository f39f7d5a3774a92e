import gc

import pytest


@pytest.fixture(params=[True, False], ids=["gc_enabled", "gc_disabled"])
def caller_gc(request):
    """Run the test with the cyclic collector enabled or disabled by the
    caller; yields that setting and restores the previous one afterwards."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()
