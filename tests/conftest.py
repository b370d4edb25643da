from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")

TESTS_DIR = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # A warning fails a test of this directory. The rule is not set for the
    # whole run, because the benchmark's self-tests under perfbench/ are not
    # held to it. Hypothesis itself warns while it reports a falsifying
    # example, and as an error that warning would hide the example.
    for item in items:
        if TESTS_DIR in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
            item.add_marker(pytest.mark.filterwarnings(
                "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"))
