"""Default thresholds and limits shared by the analysis modules and the CLI.

This module imports nothing, so the CLI reads its defaults from here
without loading numpy or any analysis module.
"""

# |r| between two predictors above which correlation warnings, conditional
# cautions and bridge findings are raised.
DESTABILIZATION_THRESHOLD = 0.7

# Joint response within this fraction of the corner-prediction range of
# the control level counts as "restored to control".
CONTROL_TOLERANCE = 0.05

# Most points a plot grid may hold: a conditional sweep's steps and an
# ellipse boundary's points.  Each point becomes a row of the report or
# plot file, so a larger grid is refused before anything is allocated.
MAX_PLOT_POINTS = 1_000_000

# Bytes of rows per block of each pass over the data after the CSV parse:
# the design rows of the fold that builds R in ols (2,048 rows of the 22
# columns of a five-predictor full quadratic) and the column chunks of
# dataset.centered_moments.  Each pass holds one such block, not n rows.
ROW_BLOCK_BYTES = 352 * 1024
