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

# Bytes per block of each pass whose working set would otherwise grow with
# its input: the design rows of the fold that builds R in ols (2,048 rows of
# the 22 columns of a five-predictor full quadratic), the row chunks of
# dataset._moments, and, at 8 bytes an element, the Student t tail's blocks
# of t (stats._BLOCK), which also bound the pairs in each row band of
# dataset.CorrelationReport.p.  Each pass holds one such block (times the
# arrays it keeps per element), not n rows or k^2 / 2 pairs.
ROW_BLOCK_BYTES = 352 * 1024

# Most bytes the cache of parsed inputs (condreg.cache) may hold on disk:
# after each store, its least recently used entries are removed until the
# directory is within this bound.  An entry holds 8 bytes per value, about
# three quarters of a CSV of 6-decimal numbers.
PARSE_CACHE_BYTES = 512 * 1024 * 1024
