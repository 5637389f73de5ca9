import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))

try:
    from hypothesis import settings
except ImportError:  # only tests/test_properties.py needs it, and it skips
    pass
else:
    # Property tests draw the same examples on every run, keep no example
    # database and stay within a few seconds.
    settings.register_profile(
        "deterministic", derandomize=True, database=None, deadline=None, max_examples=60
    )
    settings.load_profile("deterministic")
