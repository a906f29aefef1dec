import pytest

from ffmzv import criterion


@pytest.fixture(autouse=True)
def _no_suffix_verdicts():
    """Every test starts with an empty suffix memo, so that tests that
    spy on or count the decision's work do not depend on which tests
    ran before them."""
    criterion._SUFFIX_VERDICTS.clear()
