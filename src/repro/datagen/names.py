"""Names of the paper's four scenarios, importable without numpy.

The CLI's argument parser offers these as choices; the generators
themselves live in :mod:`repro.datagen.scenarios`.
"""

__all__ = ["SCENARIO_NAMES"]

SCENARIO_NAMES = ("bike", "cow", "car", "airplane")
