from hypothesis import settings

# The long run of the properties that take their draws from `draws`: the
# rate routes, the selections, the cell fit, its check of the targets and
# its row order at any location width.
# Every other property sets its own draws, so under `pytest
# --hypothesis-profile=long-run` the rest of the suite runs as in tier-1; CI
# runs it so (.github/workflows/tests.yml).
settings.register_profile("long-run", max_examples=3000, deadline=None)


def draws(tier1: int) -> int:
    """A property's draws: `tier1`, or more under a loaded profile that asks
    for more, as `long-run` does."""
    return max(tier1, settings.default.max_examples)
