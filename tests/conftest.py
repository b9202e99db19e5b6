from hypothesis import settings

# The long run of the properties that take their draws from `draws`: the
# rate routes, the selections and the cell fit. CI runs each file's
# properties under it in a step of its own (.github/workflows/tests.yml):
# pytest --hypothesis-profile=long-run tests/test_linkeval.py -k "..."
settings.register_profile("long-run", max_examples=3000, deadline=None)


def draws(tier1: int) -> int:
    """A property's draws: `tier1`, or more under a loaded profile that asks
    for more, as `long-run` does."""
    return max(tier1, settings.default.max_examples)
