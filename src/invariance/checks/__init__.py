"""Classifiers distinguishing form-invariance from frame-indifference,
plus the differential-geometry case suites (charts, affine connection,
geometric invariance of points and differences)."""
