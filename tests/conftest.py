from hypothesis import settings

# The long run of the rate-route properties (tests/test_linkeval.py):
# pytest --hypothesis-profile=rate-routes tests/test_linkeval.py -k "sweep"
settings.register_profile("rate-routes", max_examples=3000, deadline=None)
# The long run of the selection properties (tests/test_selectors.py): top-k
# against the stable sort and batch rows against one-row calls, the coverage
# plan and k-means against their references
settings.register_profile("selection", max_examples=3000, deadline=None)
# The long run of the cell-fit properties (tests/test_boosting.py): the fit
# on bin cells against the row-by-row reference where many rows share a
# cell, and `train` on rows of the targets against a copy of those rows
settings.register_profile("cell-fit", max_examples=3000, deadline=None)
