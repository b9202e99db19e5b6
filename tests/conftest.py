from hypothesis import settings

# The long run of the rate-route properties (tests/test_linkeval.py):
# pytest --hypothesis-profile=rate-routes tests/test_linkeval.py -k "sweep"
settings.register_profile("rate-routes", max_examples=3000, deadline=None)
