"""Frozen constants derived from one-time oracle scans.

AT_THRESHOLD_LOWER_C is a lower bound on
at_threshold_prob(d, eps) * sqrt(d + 1/eps^2) over d in 1..50 and eps in
{0.1, 0.5, 1}. The scan is recomputed by
tests/test_oracles.py::TestAtThresholdProb::test_frozen_scan_constant.
The frozen value sits slightly below the observed minimum so the
lower-bound check has no float slop.
"""

# Observed minimum 0.46306562 (d=20, eps=0.1); frozen slightly below.
AT_THRESHOLD_LOWER_C = 0.46
