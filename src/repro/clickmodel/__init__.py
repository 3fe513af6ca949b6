"""User click model: position-bias examination.

An ad is clicked with probability ``min(1, examination x quality)``:
the examination probability of its slot times the ad's quality score,
the one quality that also ranks and prices it.
"""

from .position_bias import examination_probability, examination_table

__all__ = ["examination_probability", "examination_table"]
