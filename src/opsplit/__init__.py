"""Operator-splitting solvers built around a certified extra-gradient kernel.

Modules:

* :mod:`opsplit.linops` — block layouts, linear maps, SPD metrics.
* :mod:`opsplit.hpe_core` — the relative-error extra-gradient kernel and its
  complexity instrumentation.
* :mod:`opsplit.splitters` — certified step oracles for classical splitting
  schemes (FBHF, consensus proximal-gradient, Condat-Vu, adaptive primal-dual).
* :mod:`opsplit.padmm_ebb` — multi-block proximal ADMM with extra-gradient
  correction and Barzilai-Borwein metrics.
* :mod:`opsplit.prox_problems` — proximal operators and problem builders.
* :mod:`opsplit.acceptance` — the acceptance gates of ``opsplit check``.
* :mod:`opsplit.cli` — the ``opsplit`` command-line driver.
"""

__version__ = "0.1.0"
