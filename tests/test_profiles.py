"""The Hypothesis profile a run loads: conftest's default, or the one named on the command line."""

from hypothesis import settings


def test_the_profile_flag_wins_over_the_conftest_default(pytestconfig):
    # conftest loads its own profile at import; the plugin loads the flag's
    # after it, or else the tier-1 CI steps would draw random examples.
    wanted = pytestconfig.getoption("--hypothesis-profile") or "autotier"
    assert settings.get_current_profile_name() == wanted
    if wanted == "ci":
        assert settings.default.derandomize and settings.default.database is None
    assert settings.default.deadline is None
