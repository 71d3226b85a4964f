"""repro — packet-level reproduction of Homa (SIGCOMM 2018).

``examples/quickstart.py`` is the tour, and docs/ holds the references
(CONFIG.md, FABRICS.md, CAMPAIGNS.md, PERFORMANCE.md,
STATIC_ANALYSIS.md).  Import names from their defining modules
(``repro.core.engine.Simulator``, ``repro.experiments.runner``); no
package re-exports them.  ``import repro`` imports nothing third-party,
so ``python -m repro.analysis`` — the simlint gate CI runs *before*
``pip install`` — works in containers without numpy.
"""

__version__ = "0.1.0"
