from hypothesis import settings

# every Hypothesis test draws the same examples on every run and keeps none
# between runs, so that tier-1 is a pure function of the code
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
