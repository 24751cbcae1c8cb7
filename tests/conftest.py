"""Suite-wide settings: one hypothesis profile, loaded for every run, so that
every run draws the same examples and a slow runner cannot miss a deadline."""

try:
    from hypothesis import settings
except ImportError:         # the property tests skip themselves without it
    pass
else:
    settings.register_profile("vblast", derandomize=True, deadline=None, max_examples=40,
                              database=None)
    settings.load_profile("vblast")
