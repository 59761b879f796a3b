"""The Jackpine benchmark: micro suites, macro scenarios, and the
experiment registry (:mod:`repro.core.experiments`) that runs them."""
