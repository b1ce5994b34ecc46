"""Distribution-free prediction intervals by split-style calibration.

The package builds bands with finite-sample marginal coverage around any
regression engine: fixed-width bands from absolute residuals, locally
adaptive bands from scaled residuals, and conformalized quantile-pair
bands with a shared or per-tail correction. Engines (ridge, k-NN
dispersion, linear and network pinball models, regression forests) are
self-contained, and a benchmark harness with a CLI reproduces the
repeated-split evaluation protocol.

Each public name is imported from the module that defines it
(``confband.conformal``, ``confband.datagen``, ``confband.harness``,
``confband.regressors`` and so on); importing the package itself loads
none of them.
"""

__version__ = "0.1.0"
