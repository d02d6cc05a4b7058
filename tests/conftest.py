"""Hypothesis profiles.  ``ci`` draws five times the default number of
examples from a fixed seed, so a failure it finds repeats on every run;
select it with ``pytest --hypothesis-profile=ci``.  The default profile is
unchanged."""

from hypothesis import settings

settings.register_profile("ci", max_examples=500, derandomize=True, deadline=None)
