"""Suite-wide test settings: one Hypothesis profile with no deadline, since
kernel and sweep examples vary in cost, and no example database, so a run
neither writes files nor replays examples saved by an earlier run."""

from hypothesis import settings

settings.register_profile("flexmech", deadline=None, database=None)
settings.load_profile("flexmech")
