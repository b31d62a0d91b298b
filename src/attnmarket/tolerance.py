"""The package's one tolerance policy: every numerical threshold is defined
here.  The paper's inequalities often hold with zero slack, so verdicts
depend on what counts as zero up to rounding; a test keeps threshold
literals out of every other module."""

ROUNDING = 1e-12   # floats this close are equal: inputs, payoffs, ties, ratios
SLACK_TOL = 1e-10  # a structural condition's slack this close to 0 counts as 0
DECAY_TOL = 1e-9   # a fitted decay factor must sit below 1 by this margin
TINY = 1e-300      # floor for a denominator that may be zero
