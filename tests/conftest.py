import pytest

from helpers import make_cfg


@pytest.fixture
def cfg_slash22():
    return make_cfg(("10.0.0.0/22",))


@pytest.fixture
def cfg_wide():
    # 2^21 addresses: an event's offset set becomes a 256 KiB bitmap past 2,048.
    return make_cfg(("10.0.0.0/11",))
