"""Suite-wide test configuration.

Registers a hypothesis profile without per-example deadlines: several
property tests build real index/mining structures whose first example
pays one-off JIT-ish costs (numpy warmup, first index builds) that trip the
default 200 ms deadline only on cold caches.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
